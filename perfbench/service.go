package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/spec"
)

// serviceWorkload drives an in-process daemon behind a loopback
// listener with serviceClients keep-alive clients in a closed loop:
// what-if callers wait for each reply before asking the next question.
type serviceWorkload struct {
	mix   *serviceMix
	tr    *tracer
	svc   *server.Server
	hs    *http.Server
	url   string
	conns chan *http.Client
	// pool and pooled are the benchmark's own warm-world executor; the
	// traced run times spec.RunContext on it for every miss.
	pool       *spec.WorldPool
	pooled     *spec.Exec
	statsStart [3]int64
}

const serviceClients = 2

func newService(seed int64, tr *tracer) *serviceWorkload {
	return &serviceWorkload{mix: genService(seed), tr: tr}
}

func (w *serviceWorkload) size() int        { return len(w.mix.Stream) }
func (w *serviceWorkload) key(i int) string { return w.mix.Stream[i].Key }
func (w *serviceWorkload) clients() int     { return serviceClients }
func (w *serviceWorkload) digest() string   { return digest(w.mix) }

// start brings the daemon up and warms its cache with the hot set.
func (w *serviceWorkload) start() error {
	w.svc = server.New(server.Config{
		CacheEntries: serviceCache,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var handler http.Handler = w.svc
	if w.tr != nil {
		handler = http.HandlerFunc(w.serveTraced)
		w.pool = spec.NewWorldPool(spec.PoolConfig{})
		w.pooled = &spec.Exec{Pool: w.pool}
	}
	w.hs = &http.Server{Handler: handler}
	go w.hs.Serve(ln) //nolint:errcheck // returns http.ErrServerClosed at close
	w.url = "http://" + ln.Addr().String()
	w.conns = make(chan *http.Client, serviceClients)
	for range serviceClients {
		w.conns <- &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	for i, req := range w.mix.Hot {
		if _, _, err := w.post(req, -1, -1); err != nil {
			return fmt.Errorf("warm hot query %d: %w", i, err)
		}
	}
	w.statsStart[0], w.statsStart[1], w.statsStart[2] = w.svc.Stats()
	return nil
}

func (w *serviceWorkload) close() {
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		w.hs.Shutdown(ctx) //nolint:errcheck // best effort at exit
		w.svc.Close()
	}
	if w.pool != nil {
		w.pool.Close()
	}
	for range serviceClients {
		c := <-w.conns
		c.CloseIdleConnections()
	}
}

// serveTraced times Server.ServeHTTP for one request, classed by the
// X-Cache header it answered with, as a child of the client's round
// trip span.
func (w *serviceWorkload) serveTraced(rw http.ResponseWriter, r *http.Request) {
	start := w.tr.now()
	w.svc.ServeHTTP(rw, r)
	end := w.tr.now()
	op, err1 := strconv.Atoi(r.Header.Get("X-Bench-Op"))
	parent, err2 := strconv.Atoi(r.Header.Get("X-Bench-Span"))
	if err1 == nil && err2 == nil && op >= 0 {
		class := rw.Header().Get("X-Cache")
		if class == "" {
			class = "other"
		}
		w.tr.add("server.serve."+class, op, parent, start, end)
	}
}

// post sends one request and returns its X-Cache class and the check
// value of its answer.
func (w *serviceWorkload) post(req serviceReq, seq, parent int) (class, check string, err error) {
	c := <-w.conns
	defer func() { w.conns <- c }()
	hreq, err := http.NewRequest(http.MethodPost, w.url+req.Path, strings.NewReader(req.Body))
	if err != nil {
		return "", "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	rt := w.tr.begin("server.roundtrip", seq, parent)
	if w.tr != nil {
		hreq.Header.Set("X-Bench-Op", strconv.Itoa(seq))
		hreq.Header.Set("X-Bench-Span", strconv.Itoa(rt))
	}
	resp, err := c.Do(hreq)
	if err != nil {
		w.tr.end(rt)
		return "", "", err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	w.tr.end(rt)
	if err != nil {
		return "", "", err
	}
	if resp.StatusCode/100 != 2 {
		return "", "", fmt.Errorf("%s answered %d: %s", req.Path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	check, err = answerCheck(req.Path, data)
	return resp.Header.Get("X-Cache"), check, err
}

// answerCheck extracts what the referee compares from an answer: the
// virtual times of a run, the chosen algorithms of a price, the
// fingerprint of a canonicalization.
func answerCheck(path string, data []byte) (string, error) {
	switch path {
	case "/v1/run":
		var r spec.Result
		if err := json.Unmarshal(data, &r); err != nil {
			return "", err
		}
		return pointsCheck(r.Points), nil
	case "/v1/price":
		var r spec.PriceReport
		if err := json.Unmarshal(data, &r); err != nil {
			return "", err
		}
		return priceCheck(&r), nil
	case "/v1/canon":
		var r struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(data, &r); err != nil {
			return "", err
		}
		return r.Fingerprint, nil
	}
	return "", fmt.Errorf("no check for %s", path)
}

func priceCheck(r *spec.PriceReport) string {
	chosen := make([]string, len(r.Points))
	for i, p := range r.Points {
		chosen[i] = p.Chosen
	}
	return strings.Join(chosen, ",")
}

func (w *serviceWorkload) exec(i, seq int, tr *tracer) result {
	req := w.mix.Stream[i]
	root := tr.begin("op", seq, -1)
	defer tr.end(root)
	var q *spec.Query
	if tr != nil {
		var err error
		if q, err = w.frontEnd(req, seq, root); err != nil {
			return result{err: err}
		}
	}
	class, check, err := w.post(req, seq, root)
	res := result{check: check, err: err}
	if err != nil || req.Path != "/v1/run" {
		return res
	}
	switch class {
	case "hit":
		res.class = "hit"
	case "miss":
		res.class, res.sim = "miss", true
		if tr != nil {
			s := tr.begin("spec.run", seq, root)
			r, err := w.pooled.RunContext(context.Background(), q)
			tr.end(s)
			if err != nil {
				res.err = err
			} else if got := pointsCheck(r.Points); got != check {
				res.err = fmt.Errorf("pooled spec.RunContext gave %s, daemon %s", got, check)
			}
		}
	}
	return res
}

// frontEnd times the query front end the daemon runs on every request
// (parse, canonicalize, fingerprint) and, for /v1/price, the pricing
// itself, by calling spec directly on the same body.
func (w *serviceWorkload) frontEnd(req serviceReq, seq, root int) (*spec.Query, error) {
	s := w.tr.begin("spec.parse", seq, root)
	q, err := spec.Parse([]byte(req.Body))
	w.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = w.tr.begin("spec.canon", seq, root)
	err = q.Canonicalize()
	if err == nil {
		_, err = q.Fingerprint()
	}
	w.tr.end(s)
	if err != nil {
		return nil, err
	}
	if req.Path == "/v1/price" {
		s = w.tr.begin("coll.price", seq, root)
		_, err = spec.Price(q)
		w.tr.end(s)
	}
	return q, err
}

// refer answers request i without the daemon: construct-per-point
// execution for runs, spec.Price for prices, spec's canonical
// fingerprint for canonicalizations.
func (w *serviceWorkload) refer(i int) (string, error) {
	req := w.mix.Stream[i]
	if req.Path == "/v1/run" {
		return referRun(req.Body)
	}
	q, err := spec.Parse([]byte(req.Body))
	if err != nil {
		return "", err
	}
	if req.Path == "/v1/price" {
		r, err := spec.Price(q)
		if err != nil {
			return "", err
		}
		return priceCheck(r), nil
	}
	if err := q.Canonicalize(); err != nil {
		return "", err
	}
	return q.Fingerprint()
}

func (w *serviceWorkload) layers(m map[string]float64) {
	hits, misses, coalesced := w.svc.Stats()
	hits -= w.statsStart[0]
	misses -= w.statsStart[1]
	if hits+misses > 0 {
		m["server.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["server.coalesced"] = float64(coalesced - w.statsStart[2])
	if w.pool != nil {
		m["spec.pool_hit_ratio"] = w.pool.Stats().HitRatio()
	}
}
