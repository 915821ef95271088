package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mnoc/internal/exp"
	"mnoc/internal/runner"
	"mnoc/internal/runner/artifact"
	"mnoc/internal/telemetry"
)

// testConfig keeps server tests fast: radix 16, tiny QAP budget —
// the same scale the runner tests use.
func testConfig() Config {
	return Config{
		Runner: runner.Config{
			Options:  &exp.Options{N: 16, Seed: 1, QAPIters: 50, Cycles: 1e6, SimAccesses: 20},
			FailFast: true,
		},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestSolveEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, body := post(t, ts.URL+"/v1/solve", SolveRequest{Bench: "fft", Kind: "dist4", QAP: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.TotalWatts <= 0 || out.BaseWatts <= 0 {
		t.Fatalf("non-positive watts: %+v", out)
	}
	if out.Normalized <= 0 || out.Normalized >= 1.5 {
		t.Fatalf("implausible normalized power %g", out.Normalized)
	}
	// A mapped multi-mode design must not cost more than base.
	if out.Normalized > 1 {
		t.Errorf("dist4+QAP normalized %g > 1", out.Normalized)
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, body := post(t, ts.URL+"/v1/evaluate", EvaluateRequest{Bench: "fft", Policy: "base", Scale: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out EvaluateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.MNoCCycles == 0 || out.RNoCCycles == 0 {
		t.Fatalf("missing performance cycles: %+v", out)
	}
	if out.Speedup <= 0 {
		t.Fatalf("speedup %g", out.Speedup)
	}
	// Scale=2 doubles the wattage exactly (power is linear in traffic).
	resp1, body1 := post(t, ts.URL+"/v1/evaluate", EvaluateRequest{Bench: "fft", Policy: "base"})
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	var out1 EvaluateResponse
	if err := json.Unmarshal(body1, &out1); err != nil {
		t.Fatal(err)
	}
	if got, want := out.TotalWatts, 2*out1.TotalWatts; got < want*0.999 || got > want*1.001 {
		t.Errorf("scaled watts %g, want %g", got, want)
	}
}

func TestBenchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, body := post(t, ts.URL+"/v1/bench", BenchRequest{ID: "fig3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var tables []exp.Table
	if err := json.Unmarshal(body, &tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "fig3" || len(tables[0].Rows) == 0 {
		t.Fatalf("unexpected tables: %s", body)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/solve", SolveRequest{Bench: "nope", Kind: "dist4"}},
		{"/v1/solve", SolveRequest{Bench: "fft", Kind: "nope"}},
		{"/v1/solve", map[string]any{"bench": "fft", "typo_field": 1}},
		{"/v1/evaluate", EvaluateRequest{Bench: "fft", Policy: "base", Scale: -1}},
		{"/v1/bench", BenchRequest{ID: "nope"}},
		{"/v1/bench", BenchRequest{}},
	} {
		resp, body := post(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %+v: status %d (%s), want 400", tc.path, tc.body, resp.StatusCode, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing: %s", tc.path, body)
		}
	}
	// GET on a POST route.
	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve: %d, want 405", resp.StatusCode)
	}
}

func TestHealthzAndVersion(t *testing.T) {
	cfg := testConfig()
	cfg.Version = "test-1"
	_, ts := newTestServer(t, cfg)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		Version string `json:"version"`
		Radix   int    `json:"radix"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v.Version != "test-1" || v.Radix != 16 {
		t.Fatalf("version payload: %+v", v)
	}
}

// TestCoalescing is the ISSUE's -race acceptance test: N identical
// concurrent solves must produce N successful responses but exactly
// ONE additional solve (the network build) — the flight group and the
// exp-layer singleflight collapse the duplicates, and the artifact
// cache is written once.
func TestCoalescing(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	reg := s.Runner().Telemetry()

	// Warm everything the dist2 solve needs except the network itself
	// (a base solve builds the traffic shape).
	resp, body := post(t, ts.URL+"/v1/solve", SolveRequest{Bench: "fft", Kind: "base"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: %d %s", resp.StatusCode, body)
	}
	before := reg.Counter("solve.count").Value()

	const n = 16
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			blob, _ := json.Marshal(SolveRequest{Bench: "fft", Kind: "dist2"})
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(blob))
			if err != nil {
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d", i, c)
		}
	}
	if got := reg.Counter("solve.count").Value() - before; got != 1 {
		t.Errorf("solve.count advanced by %d, want exactly 1", got)
	}
	// A repeat burst is pure cache: no further solves.
	during := reg.Counter("solve.count").Value()
	resp, body = post(t, ts.URL+"/v1/solve", SolveRequest{Bench: "fft", Kind: "dist2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat: %d %s", resp.StatusCode, body)
	}
	if got := reg.Counter("solve.count").Value(); got != during {
		t.Errorf("warm repeat solved again: %d -> %d", during, got)
	}
}

// gateStore holds every Get of the first key it is asked for until
// release is closed, so a test can keep a cold solve in flight.
type gateStore struct {
	artifact.Store
	mu      sync.Mutex
	key     artifact.Key
	entered chan struct{} // closed by the first Get
	release chan struct{}
}

func (s *gateStore) Get(key artifact.Key) ([]byte, bool, error) {
	s.mu.Lock()
	if s.key == "" {
		s.key = key
		close(s.entered)
	}
	gated := key == s.key
	s.mu.Unlock()
	if gated {
		<-s.release
	}
	return s.Store.Get(key)
}

// TestExpiredLeaderKeepsFollowers: two solves with different flight
// keys meet one layer down, at the 4M_G_S12 network both need. The
// request that started that network solve times out (504); the other,
// still within its deadline, gets its answer (200) from the same solve.
func TestExpiredLeaderKeepsFollowers(t *testing.T) {
	store := &gateStore{Store: artifact.NewMemory(), entered: make(chan struct{}), release: make(chan struct{})}
	cfg := testConfig()
	cfg.Runner.Store = store
	cfg.Workers = 2
	_, ts := newTestServer(t, cfg)
	// Registered after the server's Close, so it runs first: a failed
	// check must not leave the held solve blocking that Close.
	release := sync.OnceFunc(func() { close(store.release) })
	t.Cleanup(release)

	type result struct {
		code int
		body []byte
	}
	send := func(req SolveRequest) chan result {
		ch := make(chan result, 1)
		go func() {
			blob, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(blob))
			if err != nil {
				ch <- result{body: []byte(err.Error())}
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			ch <- result{resp.StatusCode, buf.Bytes()}
		}()
		return ch
	}

	fft := send(SolveRequest{Bench: "fft", Kind: exp.DesignComm4, TimeoutMS: 60})
	<-store.entered // the fft request leads the network solve
	// radix joins the held solve while fft's 60 ms run out. Should it
	// arrive after fft has left, it starts its own solve and must get
	// 200 just the same.
	radix := send(SolveRequest{Bench: "radix", Kind: exp.DesignComm4})
	if r := <-fft; r.code != http.StatusGatewayTimeout {
		t.Fatalf("fft: status %d (%s), want 504", r.code, r.body)
	}
	release()
	if r := <-radix; r.code != http.StatusOK {
		t.Fatalf("radix: status %d (%s), want 200", r.code, r.body)
	}
}

// TestDeadline504NoLeak: a request whose deadline expires while queued
// behind a busy worker returns 504 — and the server sheds it without
// leaking a goroutine. The worker slot is occupied directly (the
// admission pool is a buffered channel) so the test does not depend on
// timing a concurrent slow solve.
func TestDeadline504NoLeak(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 4
	s, ts := newTestServer(t, cfg)
	reg := s.Runner().Telemetry()

	baseline := runtime.NumGoroutine()

	// Occupy the single worker slot.
	s.admit.workers <- struct{}{}

	// This request can only wait in the queue; its 1ms deadline fires
	// there.
	resp, body := post(t, ts.URL+"/v1/solve", SolveRequest{Bench: "fft", Kind: "dist2", TimeoutMS: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	if reg.Counter("server.timeouts").Value() == 0 {
		t.Errorf("server.timeouts not incremented")
	}

	// Releasing the slot lets the abandoned flight observe its cancelled
	// context and exit; every goroutine the request spawned must wind
	// down. Keep-alive connection goroutines (client read/write loops
	// and the server's conn handler) are torn down explicitly so only a
	// leaked flight can keep the count elevated.
	<-s.admit.workers
	waitFor(t, func() bool {
		http.DefaultClient.CloseIdleConnections()
		return runtime.NumGoroutine() <= baseline+2
	})
}

// TestOverload429: with the queue full, new work is rejected
// immediately with Retry-After. The queue is filled directly so the
// rejection is deterministic.
func TestOverload429(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	s, ts := newTestServer(t, cfg)
	reg := s.Runner().Telemetry()

	s.admit.queue <- struct{}{}
	defer func() { <-s.admit.queue }()

	resp, body := post(t, ts.URL+"/v1/solve", SolveRequest{Bench: "fft", Kind: "dist2"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After")
	}
	if reg.Counter("server.rejected").Value() == 0 {
		t.Errorf("server.rejected not incremented")
	}
}

// TestMetricsEndpoints checks both exposition formats and pins the
// registered metric-name surface after the CI smoke sequence
// (healthz, one dist4 solve, metrics) against
// testdata/golden/metrics_names_server.txt.
func TestMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	if resp, _ := http.Get(ts.URL + "/healthz"); resp != nil {
		resp.Body.Close()
	}
	resp, body := post(t, ts.URL+"/v1/solve", SolveRequest{Bench: "fft", Kind: "dist4"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Metrics.Counters["server.requests"] == 0 {
		t.Errorf("server.requests missing from snapshot")
	}

	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "metrics_names_server.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(golden))
	got := strings.Join(rep.Metrics.Names(), "\n")
	if got != want {
		t.Errorf("metric names diverge from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom content type %q", ct)
	}
	for _, want := range []string{"# TYPE server_requests counter", "server_request_ms_bucket{le=\"+Inf\"}"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("prom output missing %q", want)
		}
	}
}

// TestLoadGenerator drives RunLoad against an in-process server: zero
// failures and sane percentiles.
func TestLoadGenerator(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	res, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:     ts.URL,
		Requests:    60,
		Concurrency: 8,
		Mix: []SolveRequest{
			{Bench: "fft", Kind: "dist2"},
			{Bench: "fft", Kind: "base", QAP: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 60 || res.Failures != 0 {
		t.Fatalf("load result: %+v", res)
	}
	if res.P50MS < 0 || res.P99MS < res.P50MS {
		t.Errorf("percentiles out of order: %+v", res)
	}
	if !strings.Contains(res.String(), "p99") {
		t.Errorf("summary line: %q", res.String())
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestGracefulShutdown: Serve drains an in-flight request before
// returning.
func TestGracefulShutdown(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	served := make(chan error, 1)
	go func() {
		served <- s.Serve(ctx, "127.0.0.1:0", 5*time.Second, func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	reqDone := make(chan int, 1)
	go func() {
		blob, _ := json.Marshal(SolveRequest{Bench: "fft", Kind: "dist2"})
		resp, err := http.Post(fmt.Sprintf("http://%s/v1/solve", addr), "application/json", bytes.NewReader(blob))
		if err != nil {
			reqDone <- 0
			return
		}
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	// The request counter increments at handler entry, so it is
	// monotonic and observable even if the request finishes before the
	// poller runs; either way the drain must deliver a 200.
	waitFor(t, func() bool { return s.Runner().Telemetry().Counter("server.requests").Value() >= 1 })
	cancel()
	if code := <-reqDone; code != http.StatusOK {
		t.Errorf("in-flight request during shutdown: status %d, want 200", code)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve returned %v", err)
	}
}

func TestEvaluateLossModel(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	req := EvaluateRequest{Bench: "fft", Policy: "dist2"}
	resp, avgBody := post(t, ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, avgBody)
	}
	// The default accounting must not grow a loss_model field — older
	// clients see byte-identical bodies.
	if bytes.Contains(avgBody, []byte("loss_model")) {
		t.Fatalf("default evaluate body mentions loss_model: %s", avgBody)
	}
	req.LossModel = "worst"
	resp, wcBody := post(t, ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("loss_model=worst status %d: %s", resp.StatusCode, wcBody)
	}
	var avg, wc EvaluateResponse
	if err := json.Unmarshal(avgBody, &avg); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wcBody, &wc); err != nil {
		t.Fatal(err)
	}
	if wc.LossModel != "worst" {
		t.Errorf("loss_model echo %q, want worst", wc.LossModel)
	}
	// Longest-path pricing charges every destination the worst path, so
	// it strictly dominates per-destination pricing.
	if wc.TotalWatts <= avg.TotalWatts {
		t.Errorf("worst-case watts %g <= average %g", wc.TotalWatts, avg.TotalWatts)
	}
	if wc.BaseWatts <= avg.BaseWatts {
		t.Errorf("worst-case base watts %g <= average %g", wc.BaseWatts, avg.BaseWatts)
	}
	// An explicit average spelling is the default accounting.
	req.LossModel = "average"
	resp, explBody := post(t, ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("loss_model=average status %d: %s", resp.StatusCode, explBody)
	}
	if !bytes.Equal(explBody, avgBody) {
		t.Errorf("explicit average body differs from default:\n%s\n%s", explBody, avgBody)
	}
	// Unknown models are rejected up front.
	req.LossModel = "median"
	resp, body := post(t, ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("loss_model=median status %d (%s), want 400", resp.StatusCode, body)
	}
}
