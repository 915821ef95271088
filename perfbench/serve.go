package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mnoc/internal/exp"
	"mnoc/internal/power"
	"mnoc/internal/runner"
	"mnoc/internal/server"
	"mnoc/internal/trace"
	"mnoc/internal/workload"
)

// A serve run times at least minSetups set-ups (server.New plus one
// warm pass over the mix), and keeps going until setupBudget is spent;
// setup_s is their median. The paper-scale solve set-up takes ~0.15 s,
// so it gets many more samples than the ~1 s evaluate set-up.
const (
	minSetups   = 5
	setupBudget = 3 * time.Second
)

// serveSpec is one serving workload: which endpoint, at which scale,
// over which design kinds and mappings, under which loss model.
type serveSpec struct {
	scale string
	path  string
	kinds []string
	qaps  []bool
	loss  power.LossModel
}

// solvePaper: POST /v1/solve at the `mnoc serve` default (paper) scale.
// comm2/comm4 are left out: they need paper-scale QAP searches, which
// take minutes of set-up.
var solvePaper = serveSpec{
	scale: "paper", path: "/v1/solve",
	kinds: []string{exp.DesignBase, exp.DesignDist2, exp.DesignDist4, exp.DesignCluster2},
	qaps:  []bool{false}, loss: power.LossAverage,
}

// evaluateWorst: POST /v1/evaluate with loss_model "worst" at quick
// scale over every design kind, naive and QAP-mapped. Quick scale keeps
// the Performance warm-up (a simulation pair per benchmark) in seconds.
var evaluateWorst = serveSpec{
	scale: "quick", path: "/v1/evaluate",
	kinds: exp.DesignKinds(),
	qaps:  []bool{false, true}, loss: power.LossWorst,
}

func serveSolvePaper(ctx context.Context, cfg runConfig) (outcome, error) {
	return serveWorkload(ctx, cfg, solvePaper)
}

func serveEvaluateWorst(ctx context.Context, cfg runConfig) (outcome, error) {
	return serveWorkload(ctx, cfg, evaluateWorst)
}

// item is one request of the mix and the check for its response.
type item struct {
	bench, kind string
	qap         bool
	body        []byte
	check       func(status int, body []byte) error
	// verified is the last body that passed check; a byte-identical
	// body decodes to identical fields, so it passes without decoding.
	verified []byte
}

func (it *item) verify(status int, body []byte) error {
	if status == http.StatusOK && bytes.Equal(body, it.verified) {
		return nil
	}
	if err := it.check(status, body); err != nil {
		return fmt.Errorf("%s %s qap=%v: %w", it.bench, it.kind, it.qap, err)
	}
	it.verified = body
	return nil
}

// mix is every benchmark × kind × mapping of the spec, in an order
// shuffled by the workload seed.
func (sp serveSpec) mix(seed int64) ([]*item, error) {
	var items []*item
	for _, b := range workload.Names() {
		for _, k := range sp.kinds {
			for _, q := range sp.qaps {
				var req any = server.SolveRequest{Bench: b, Kind: k, QAP: q}
				if sp.path == "/v1/evaluate" {
					req = server.EvaluateRequest{Bench: b, Policy: k, QAP: q, LossModel: string(sp.loss)}
				}
				body, err := json.Marshal(req)
				if err != nil {
					return nil, err
				}
				items = append(items, &item{bench: b, kind: k, qap: q, body: body})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items, nil
}

// references sets each item's check from the response the benchmark
// expects, computed by calling exp.Context directly.
func (sp serveSpec) references(ctx context.Context, c *exp.Context, items []*item) error {
	for _, it := range items {
		b, baseW, err := c.EvaluateDesignLoss(ctx, it.kind, it.bench, it.qap, sp.loss)
		if err != nil {
			return fmt.Errorf("reference %s %s: %w", it.bench, it.kind, err)
		}
		if sp.path == "/v1/solve" {
			want := server.SolveResponse{
				Bench: it.bench, Kind: it.kind, QAP: it.qap,
				BreakdownDTO: server.BreakdownDTO{
					SourceUW: float64(b.SourceUW), OEUW: float64(b.OEUW), ElecUW: float64(b.ElectricalUW),
				},
				TotalWatts: b.TotalWatts(), BaseWatts: baseW, Normalized: b.TotalWatts() / baseW,
			}
			it.check = func(status int, body []byte) error { return checkResponse(status, body, want) }
			continue
		}
		mc, rc, err := c.Performance(ctx, it.bench)
		if err != nil {
			return fmt.Errorf("reference %s: %w", it.bench, err)
		}
		want := server.EvaluateResponse{
			Bench: it.bench, Policy: it.kind, QAP: it.qap, Scale: 1, LossModel: string(sp.loss),
			TotalWatts: b.TotalWatts(), BaseWatts: baseW,
			MNoCCycles: mc, RNoCCycles: rc, Speedup: float64(rc) / float64(mc),
		}
		if sp.loss == power.LossAverage {
			want.LossModel = ""
		}
		it.check = func(status int, body []byte) error { return checkResponse(status, body, want) }
	}
	return nil
}

// target is a running in-process server on a loopback port and the
// client that talks to it.
type target struct {
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

func newServer(sp serveSpec, seed int64) (*server.Server, error) {
	return server.New(server.Config{
		Runner:  runner.Config{Scale: sp.scale, Seed: seed, Workers: workers, FailFast: true},
		Workers: workers,
	})
}

// listen serves srv on a free loopback port until stop.
func listen(ctx context.Context, srv *server.Server) (*target, error) {
	sctx, cancel := context.WithCancel(ctx)
	addr := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(sctx, "127.0.0.1:0", 5*time.Second, func(a string) { addr <- a }) }()
	select {
	case a := <-addr:
		tr := &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers, DisableCompression: true}
		return &target{url: "http://" + a, client: &http.Client{Transport: tr}, cancel: cancel, done: done}, nil
	case err := <-done:
		cancel()
		return nil, err
	}
}

// stop drains the server and waits until Serve has returned.
func (t *target) stop() error {
	t.cancel()
	err := <-t.done
	t.client.CloseIdleConnections()
	return err
}

func (t *target) post(path string, body []byte) (int, []byte, error) {
	res, err := t.client.Post(t.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	out, err := io.ReadAll(res.Body)
	return res.StatusCode, out, err
}

// passResult is one pass over the mix.
type passResult struct {
	latMS  []float64
	failed int
	wall   time.Duration
}

// pass sends every item once, split over `clients` closed-loop clients:
// each sends the next unsent item as soon as its previous reply is read
// and checked. When rec is set each round trip is a net span whose
// request ID is reqBase plus the item's index.
func (t *target) pass(path string, items []*item, clients int, rec *recorder, parent, reqBase int) passResult {
	lat := make([]float64, len(items))
	bad := make([]bool, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				end, _ := rec.start(parent, reqBase+i, "net", "net.roundtrip")
				t0 := time.Now()
				status, body, err := t.post(path, items[i].body)
				lat[i] = float64(time.Since(t0)) / float64(time.Millisecond)
				end()
				if err == nil {
					err = items[i].verify(status, body)
				}
				if err != nil {
					bad[i] = true
					fmt.Fprintln(os.Stderr, "perfbench:", err)
				}
			}
		}()
	}
	wg.Wait()
	res := passResult{latMS: lat, wall: time.Since(begin)}
	for _, b := range bad {
		if b {
			res.failed++
		}
	}
	return res
}

// prepare builds the mix, then starts an untimed warm-up server whose
// context computes the references by direct calls before any request
// reaches it, and sends one checked warm-up pass through it.
func prepare(ctx context.Context, cfg runConfig, sp serveSpec, o *outcome) ([]*item, error) {
	items, err := sp.mix(cfg.seed)
	if err != nil {
		return nil, err
	}
	srv, err := newServer(sp, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := sp.references(ctx, srv.Runner().Context(), items); err != nil {
		return nil, err
	}
	t, err := listen(ctx, srv)
	if err != nil {
		return nil, err
	}
	o.tally(t.pass(sp.path, items, workers, nil, 0, 0))
	return items, t.stop()
}

func (o *outcome) tally(p passResult) {
	o.attempted += len(p.latMS)
	o.failed += p.failed
}

// serveWorkload measures closed-loop serving with `workers` clients
// against a warm server: repeated timed set-ups, then passes over the
// mix until the measured phase is used up.
func serveWorkload(ctx context.Context, cfg runConfig, sp serveSpec) (outcome, error) {
	o := outcome{correct: true}
	items, err := prepare(ctx, cfg, sp, &o)
	if err != nil {
		return outcome{}, err
	}
	if cfg.trace {
		return serveTraced(ctx, cfg, sp, items, o)
	}
	var setups []float64
	var t *target
	for spent := time.Duration(0); len(setups) < minSetups || spent < setupBudget; {
		if t != nil {
			if err := t.stop(); err != nil {
				return outcome{}, err
			}
		}
		runtime.GC() // the previous server's garbage is not this set-up's cost
		begin := time.Now()
		srv, err := newServer(sp, cfg.seed)
		if err != nil {
			return outcome{}, err
		}
		if t, err = listen(ctx, srv); err != nil {
			return outcome{}, err
		}
		o.tally(t.pass(sp.path, items, workers, nil, 0, 0))
		setups = append(setups, time.Since(begin).Seconds())
		spent += time.Since(begin)
	}
	o.metrics = measurePasses(t, sp, items, cfg.seconds, &o)
	o.metrics["setup_s"] = median(setups)
	// The samples died with measurePasses, so the heap read sees only
	// the warm server (its caches and memo).
	o.metrics["live_heap_mb"] = liveHeapMB()
	return o, t.stop()
}

// measurePasses sends passes over the mix with `workers` clients until
// seconds have passed and returns the pass and latency metrics.
func measurePasses(t *target, sp serveSpec, items []*item, seconds float64, o *outcome) map[string]float64 {
	var lat, passes []float64
	begin := time.Now()
	for len(passes) == 0 || time.Since(begin).Seconds() < seconds {
		p := t.pass(sp.path, items, workers, nil, 0, 0)
		o.tally(p)
		lat = append(lat, p.latMS...)
		passes = append(passes, p.wall.Seconds())
	}
	wall := time.Since(begin).Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: %d requests, p99 %.3f ms (diagnostic, not gated)\n", len(lat), quantile(lat, 0.99))
	return map[string]float64{
		"run_s":          median(passes),
		"throughput_rps": float64(len(lat)) / wall,
		"latency_p50_ms": quantile(lat, 0.5),
		"latency_p90_ms": quantile(lat, 0.9),
	}
}

// serveTraced walks the set-up stages on a fresh server, one public
// call per span, then repeats three request phases over the mix until
// the measured phase is used up: an untraced loopback pass and a traced
// one (their difference is the tracing overhead), and a replay of each
// request from outside: Handler().ServeHTTP on an in-memory recorder,
// then the exp and power calls the handler makes, each timed alone.
func serveTraced(ctx context.Context, cfg runConfig, sp serveSpec, items []*item, o outcome) (outcome, error) {
	rec := newRecorder()
	o.metrics = map[string]float64{}
	srv, err := serveWalk(ctx, cfg.seed, sp, rec, o.metrics)
	if err != nil {
		return outcome{}, err
	}
	t, err := listen(ctx, srv)
	if err != nil {
		return outcome{}, err
	}
	walkSpans := len(rec.spans)
	reg := srv.Runner().Telemetry()
	counters := append(append([]string{}, serveCounters...), "power.evaluations")
	delta := map[string]uint64{}
	var plain, traced []float64
	handler := srv.Handler()
	rounds := 0
	begin := time.Now()
	for rounds == 0 || time.Since(begin).Seconds() < cfg.seconds {
		rounds++
		before := reg.Snapshot().Counters
		p := t.pass(sp.path, items, 1, nil, 0, 0)
		after := reg.Snapshot().Counters
		for _, c := range counters {
			delta[c] += after[c] - before[c]
		}
		o.tally(p)
		plain = append(plain, float64(p.wall)/float64(time.Millisecond))

		reqBase := 2*rounds*len(items) + 1 // unique per traced request; 0 is the set-up
		end, root := rec.start(0, 0, "bench", "pass")
		p = t.pass(sp.path, items, 1, rec, root, reqBase)
		end()
		o.tally(p)
		traced = append(traced, float64(p.wall)/float64(time.Millisecond))

		if err := sp.replay(ctx, srv.Runner().Context(), handler, items, rec, reqBase+len(items), &o); err != nil {
			return outcome{}, err
		}
	}
	p50 := func(name string) float64 {
		var us []float64
		for _, d := range rec.byName(name) {
			us = append(us, float64(d)/float64(time.Microsecond))
		}
		if len(us) == 0 {
			return 0
		}
		return quantile(us, 0.5)
	}
	m := o.metrics
	m["net.roundtrip_us"] = p50("net.roundtrip")
	m["server.handler_us"] = p50("server.handler")
	m["net.transport_us"] = m["net.roundtrip_us"] - m["server.handler_us"]
	m["exp.evaluate_design_us"] = p50("exp.evaluate_design")
	m["exp.performance_us"] = p50("exp.performance")
	m["power.reprice_us"] = p50("power.reprice")
	m["power.evaluate_us"] = p50("power.evaluate.call")
	m["server.other_us"] = m["server.handler_us"] - m["exp.evaluate_design_us"] - m["exp.performance_us"]
	m["trace.overhead_ms"] = mean(traced) - mean(plain)
	for l, d := range rec.selfTimes(walkSpans) {
		m["self."+l+"_ms"] = float64(d) / float64(time.Millisecond) / float64(rounds)
	}
	snap := reg.Snapshot()
	for _, c := range runCounters {
		m[c] = float64(snap.Counters[c])
	}
	for _, c := range serveCounters {
		m[c] = float64(delta[c])
	}
	m["power.evaluations_per_request"] = float64(delta["power.evaluations"]) / float64(max(delta["server.requests"], 1))
	if err := t.stop(); err != nil {
		return outcome{}, err
	}
	return o, rec.write(cfg.spans)
}

// serveWalk builds a fresh server and times, in order: server.New;
// Shape, QAPMapping (when the mix maps), DesignNetwork over the mix's
// kinds, Performance (for /v1/evaluate) and MNoC.Evaluate of every
// design on the mix's traffic. It writes the stage walls, their total
// and the unattributed rest into m.
func serveWalk(ctx context.Context, seed int64, sp serveSpec, rec *recorder, m map[string]float64) (*server.Server, error) {
	begin := time.Now()
	endRoot, root := rec.start(0, 0, "bench", "setup")
	st := newStages(rec, root, 0)
	var srv *server.Server
	if err := st.time("server", "server.new", func(int) (err error) {
		srv, err = newServer(sp, seed)
		return err
	}); err != nil {
		return nil, err
	}
	c := srv.Runner().Context()
	names := workload.Names()
	var evalUS []float64
	steps := []stageStep{
		{"workload", "workload.shape", names, func(_ int, b string) error { _, err := c.Shape(ctx, b); return err }},
	}
	if slices.Contains(sp.qaps, true) {
		steps = append(steps, stageStep{"mapping", "mapping.qap", names, func(_ int, b string) error { _, err := c.QAPMapping(ctx, b); return err }})
	}
	steps = append(steps, stageStep{"splitter", "splitter.design_network", sp.kinds, func(_ int, k string) error { _, err := c.DesignNetwork(ctx, k); return err }})
	if sp.path == "/v1/evaluate" {
		steps = append(steps, stageStep{"sim", "sim.performance", names, func(_ int, b string) error { _, _, err := c.Performance(ctx, b); return err }})
	}
	steps = append(steps, stageStep{"power", "power.evaluate", sp.kinds, func(span int, k string) error {
		us, err := evaluateDesign(ctx, c, k, sp.loss, trafficFor(ctx, c, sp.qaps), rec, span, 0)
		evalUS = append(evalUS, us...)
		return err
	}})
	accesses, err := st.runSteps(srv.Runner().Telemetry(), steps)
	if err != nil {
		return nil, err
	}
	endRoot()
	st.report(m, time.Since(begin), accesses)
	m["power.evaluate_us"] = quantile(evalUS, 0.5)
	return srv, nil
}

// replay re-issues every request of the mix from outside the network:
// the handler on an in-memory recorder (its body checked like a
// loopback response), then EvaluateDesignLoss, Performance (for
// /v1/evaluate), WithLossModel and MNoC.Evaluate, each its own span
// under one span per request.
func (sp serveSpec) replay(ctx context.Context, c *exp.Context, h http.Handler, items []*item, rec *recorder, reqBase int, o *outcome) error {
	for i, it := range items {
		req := reqBase + i
		endReq, root := rec.start(0, req, "bench", "request")
		span := func(layer, name string, fn func() error) error {
			end, _ := rec.start(root, req, layer, name)
			err := fn()
			end()
			return err
		}
		w := httptest.NewRecorder()
		_ = span("server", "server.handler", func() error {
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, sp.path, bytes.NewReader(it.body)))
			return nil
		})
		o.attempted++
		if err := it.verify(w.Code, w.Body.Bytes()); err != nil {
			o.failed++
			fmt.Fprintln(os.Stderr, "perfbench: handler:", err)
		}
		if err := span("exp", "exp.evaluate_design", func() error {
			_, _, err := c.EvaluateDesignLoss(ctx, it.kind, it.bench, it.qap, sp.loss)
			return err
		}); err != nil {
			return err
		}
		if sp.path == "/v1/evaluate" {
			if err := span("exp", "exp.performance", func() error { _, _, err := c.Performance(ctx, it.bench); return err }); err != nil {
				return err
			}
		}
		net, err := c.DesignNetwork(ctx, it.kind)
		if err != nil {
			return err
		}
		m, err := trafficFor(ctx, c, []bool{it.qap})(it.bench)
		if err != nil {
			return err
		}
		if err := span("power", "power.reprice", func() (err error) { net, err = net.WithLossModel(sp.loss); return err }); err != nil {
			return err
		}
		if err := span("power", "power.evaluate.call", func() error { _, err := net.Evaluate(m[0], c.Opt.Cycles); return err }); err != nil {
			return err
		}
		endReq()
	}
	return nil
}

// trafficFor returns the matrices a mix with the given mappings prices
// for one benchmark: its naive traffic, its QAP-mapped traffic, or both.
func trafficFor(ctx context.Context, c *exp.Context, qaps []bool) func(string) ([]*trace.Matrix, error) {
	return func(bench string) ([]*trace.Matrix, error) {
		var out []*trace.Matrix
		for _, q := range qaps {
			m, err := c.Shape(ctx, bench)
			if q && err == nil {
				m, err = c.Mapped(ctx, bench)
			}
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
		return out, nil
	}
}
