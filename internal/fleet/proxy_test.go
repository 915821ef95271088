package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mnoc/internal/server"
	"mnoc/internal/telemetry"
)

// stubBackend is a recording fake replica: it answers every request
// with its own name and remembers which paths+bodies it saw.
type stubBackend struct {
	name string
	mu   sync.Mutex
	hits int
}

func newStubBackend(t *testing.T, name string) (*stubBackend, *httptest.Server) {
	t.Helper()
	b := &stubBackend{name: name}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		b.hits++
		b.mu.Unlock()
		io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, name)
	}))
	t.Cleanup(ts.Close)
	return b, ts
}

func (b *stubBackend) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.hits
}

func newTestProxy(t *testing.T, cfg ProxyConfig) (*Proxy, *httptest.Server) {
	t.Helper()
	if cfg.HealthInterval == 0 {
		// Keep the prober quiet during short tests; passive marking
		// still runs on every forward.
		cfg.HealthInterval = time.Hour
	}
	p, err := NewProxy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(ts.Close)
	return p, ts
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestProxyRoutesByFlightKey pins placement determinism: every repeat
// of one request lands on one backend, and distinct keys spread across
// the ring.
func TestProxyRoutesByFlightKey(t *testing.T) {
	a, tsA := newStubBackend(t, "A")
	b, tsB := newStubBackend(t, "B")
	_, proxy := newTestProxy(t, ProxyConfig{Backends: []string{tsA.URL, tsB.URL}})

	req := server.SolveRequest{Bench: "fft", Kind: "dist4", QAP: true}
	var owner string
	for i := 0; i < 10; i++ {
		resp, body := postJSON(t, proxy.URL+"/v1/solve", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if owner == "" {
			owner = string(body)
		} else if string(body) != owner {
			t.Fatalf("request moved from %s to %s across repeats", owner, body)
		}
	}
	if a.count()+b.count() != 10 {
		t.Fatalf("backends saw %d+%d requests, want 10", a.count(), b.count())
	}

	// Defaulting-equivalence: Kind unset and Kind "comm4" are the same
	// computation, so they must route identically.
	_, ownerDefault := postJSON(t, proxy.URL+"/v1/solve", server.SolveRequest{Bench: "lu"})
	_, ownerExplicit := postJSON(t, proxy.URL+"/v1/solve", server.SolveRequest{Bench: "lu", Kind: "comm4"})
	if string(ownerDefault) != string(ownerExplicit) {
		t.Fatalf("defaulted and explicit comm4 routed to different backends (%s vs %s)",
			ownerDefault, ownerExplicit)
	}

	// Many distinct keys must touch both backends.
	a0, b0 := a.count(), b.count()
	for i := 0; i < 40; i++ {
		postJSON(t, proxy.URL+"/v1/solve", server.SolveRequest{Bench: fmt.Sprintf("syn_%d", i)})
	}
	if a.count() == a0 || b.count() == b0 {
		t.Fatalf("40 distinct keys did not spread: A+%d B+%d", a.count()-a0, b.count()-b0)
	}
}

// TestFlightKeyMatchesBackendKey pins that the proxy routes each API
// request by the key the backend's flight group coalesces it on, so
// placement and coalescing agree. Artifact paths route by path; a body
// the backend would refuse falls back to the path plus a body digest.
func TestFlightKeyMatchesBackendKey(t *testing.T) {
	marshal := func(v any) []byte {
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	digest := func(path string, body []byte) string {
		sum := sha256.Sum256(body)
		return path + "|" + hex.EncodeToString(sum[:8])
	}
	solve := server.SolveRequest{Bench: "fft", QAP: true}
	eval := server.EvaluateRequest{Bench: "lu", Policy: "dist4", Scale: 2, LossModel: "worst"}
	evalKey, err := eval.FlightKey()
	if err != nil {
		t.Fatal(err)
	}
	bench := server.BenchRequest{IDs: []string{"fig8"}, ID: "table1"}
	truncated := []byte(`{"bench": "fft"`)
	badLoss := marshal(server.EvaluateRequest{Bench: "lu", LossModel: "nosuch"})
	adaptBody := marshal(map[string]string{"bench": "fft"})

	cases := []struct {
		name, path string
		body       []byte
		want       string
	}{
		{"solve", "/v1/solve", marshal(solve), solve.FlightKey()},
		{"evaluate", "/v1/evaluate", marshal(eval), evalKey},
		{"bench", "/v1/bench", marshal(bench), bench.FlightKey()},
		{"artifact get", "/artifacts/0123abcd", nil, "/artifacts/0123abcd"},
		{"artifact put", "/artifacts/0123abcd", []byte("MART blob"), "/artifacts/0123abcd"},
		{"malformed solve", "/v1/solve", truncated, digest("/v1/solve", truncated)},
		{"malformed evaluate", "/v1/evaluate", truncated, digest("/v1/evaluate", truncated)},
		{"malformed bench", "/v1/bench", truncated, digest("/v1/bench", truncated)},
		{"unknown loss model", "/v1/evaluate", badLoss, digest("/v1/evaluate", badLoss)},
		{"other path", "/v1/adapt/evaluate", adaptBody, digest("/v1/adapt/evaluate", adaptBody)},
	}
	for _, c := range cases {
		if got := flightKey(c.path, c.body); got != c.want {
			t.Errorf("%s: flightKey(%s) = %q, want %q", c.name, c.path, got, c.want)
		}
	}
}

// TestProxyHealthzDrain pins the proxy's own /healthz: 200 while
// serving, 503 "draining" once StartDrain runs, and never forwarded.
func TestProxyHealthzDrain(t *testing.T) {
	a, tsA := newStubBackend(t, "A")
	p, proxy := newTestProxy(t, ProxyConfig{Backends: []string{tsA.URL}})
	healthz := func() (int, string) {
		t.Helper()
		resp, err := http.Get(proxy.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.Status
	}
	if code, status := healthz(); code != http.StatusOK || status != "ok" {
		t.Fatalf("healthz before drain: %d %q, want 200 \"ok\"", code, status)
	}
	p.StartDrain()
	if code, status := healthz(); code != http.StatusServiceUnavailable || status != "draining" {
		t.Fatalf("healthz during drain: %d %q, want 503 \"draining\"", code, status)
	}
	if n := a.count(); n != 0 {
		t.Fatalf("backend saw %d requests; /healthz is the proxy's own", n)
	}
}

// TestProxyFailover kills a backend and checks the proxy retries the
// next ring node with the request body intact, evicting the dead node.
func TestProxyFailover(t *testing.T) {
	_, tsA := newStubBackend(t, "A")
	_, tsB := newStubBackend(t, "B")
	p, proxy := newTestProxy(t, ProxyConfig{Backends: []string{tsA.URL, tsB.URL}})

	// Find a request owned by A, then kill A.
	req := func(i int) server.SolveRequest { return server.SolveRequest{Bench: fmt.Sprintf("bench_%d", i)} }
	ownedByA := -1
	for i := 0; i < 100; i++ {
		if p.ring.Seq(req(i).FlightKey(), 1)[0] == tsA.URL {
			ownedByA = i
			break
		}
	}
	if ownedByA < 0 {
		t.Fatal("no sampled key owned by backend A")
	}
	tsA.CloseClientConnections()
	tsA.Close()

	resp, body := postJSON(t, proxy.URL+"/v1/solve", req(ownedByA))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover request: status %d (%s)", resp.StatusCode, body)
	}
	if string(body) != "B" {
		t.Fatalf("failover landed on %q, want B", body)
	}
	snap := p.reg.Snapshot()
	if snap.Counters[MetricProxyFailovers] == 0 {
		t.Error("failover not counted")
	}
	if snap.Counters[MetricProxyEvictions] == 0 {
		t.Error("eviction not counted")
	}
}

// TestProxyAllBackendsDown pins the terminal failure shape: a bounded
// number of attempts, then a 502 naming the flight key.
func TestProxyAllBackendsDown(t *testing.T) {
	_, tsA := newStubBackend(t, "A")
	tsA.Close()
	_, proxy := newTestProxy(t, ProxyConfig{Backends: []string{tsA.URL}})
	resp, body := postJSON(t, proxy.URL+"/v1/solve", server.SolveRequest{Bench: "fft"})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d (%s), want 502", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("solve|fft|comm4|false")) {
		t.Fatalf("502 body %q does not name the flight key", body)
	}
}

// TestProxy429PassThrough pins admission semantics: the owner's 429
// and its Retry-After reach the client untouched, with no failover —
// pushback is not a failure.
func TestProxy429PassThrough(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"busy"}`)
	}))
	t.Cleanup(busy.Close)
	idle := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "idle")
	}))
	t.Cleanup(idle.Close)

	p, proxy := newTestProxy(t, ProxyConfig{Backends: []string{busy.URL, idle.URL}})
	// Find a key the busy backend owns, so pushback is what we exercise.
	var req server.SolveRequest
	for i := 0; ; i++ {
		req = server.SolveRequest{Bench: fmt.Sprintf("bench_%d", i)}
		if p.ring.Seq(req.FlightKey(), 1)[0] == busy.URL {
			break
		}
	}
	resp, _ := postJSON(t, proxy.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want 7 (pass-through)", got)
	}
	if n := p.reg.Snapshot().Counters[MetricProxyFailovers]; n != 0 {
		t.Fatalf("429 triggered %d failovers; pushback must stay with the owner", n)
	}
}

// TestProxyVersionAndMetrics pins the proxy's own surface: /version
// reports role and ring size, and /metrics exposes exactly the
// fleet.* name set the golden file records.
func TestProxyVersionAndMetrics(t *testing.T) {
	_, tsA := newStubBackend(t, "A")
	_, tsB := newStubBackend(t, "B")
	_, proxy := newTestProxy(t, ProxyConfig{Backends: []string{tsA.URL, tsB.URL}, Version: "test"})

	resp, err := http.Get(proxy.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	var ver struct {
		Role    string `json:"role"`
		Ring    int    `json:"ring"`
		Healthy int    `json:"healthy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ver); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ver.Role != "proxy" || ver.Ring != 2 || ver.Healthy != 2 {
		t.Fatalf("version %+v, want role=proxy ring=2 healthy=2", ver)
	}

	resp, err = http.Get(proxy.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "metrics_names_fleet.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(golden))
	got := strings.Join(rep.Metrics.Names(), "\n")
	if got != want {
		t.Fatalf("fleet metric names diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Prometheus format works too.
	resp, err = http.Get(proxy.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(prom, []byte("fleet_proxy_requests")) {
		t.Fatalf("prom exposition missing fleet_proxy_requests:\n%s", prom)
	}
}

// TestHealthProbeEvictsAndReadmits runs the active prober against a
// flappable backend.
func TestHealthProbeEvictsAndReadmits(t *testing.T) {
	var downMu sync.Mutex
	down := false
	flappy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		downMu.Lock()
		d := down
		downMu.Unlock()
		if d {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	t.Cleanup(flappy.Close)

	reg := telemetry.NewRegistry()
	h := newHealth([]string{flappy.URL}, 10*time.Millisecond,
		reg.Counter(MetricProxyEvictions), reg.Counter(MetricProxyReadmissions))

	probeOnce := func() {
		if h.probe(context.Background(), flappy.URL) {
			h.markUp(flappy.URL)
		} else {
			h.markDown(flappy.URL)
		}
	}
	isUp := func() bool {
		healthy, _ := h.partition([]string{flappy.URL})
		return len(healthy) == 1
	}
	probeOnce()
	if !isUp() {
		t.Fatal("healthy backend marked down")
	}
	downMu.Lock()
	down = true
	downMu.Unlock()
	probeOnce()
	if isUp() {
		t.Fatal("draining backend still up after probe")
	}
	downMu.Lock()
	down = false
	downMu.Unlock()
	probeOnce()
	if !isUp() {
		t.Fatal("recovered backend not re-admitted")
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricProxyEvictions] != 1 || snap.Counters[MetricProxyReadmissions] != 1 {
		t.Fatalf("transition counters %v, want 1 eviction + 1 readmission", snap.Counters)
	}
}

// TestProxyServeStopsProber pins that the health prober Serve starts
// exits when Serve returns: after a probe has run and Serve has
// drained, the goroutine count falls back to what it was before Serve.
func TestProxyServeStopsProber(t *testing.T) {
	a, ts := newStubBackend(t, "A")
	p, err := NewProxy(ProxyConfig{Backends: []string{ts.URL}, HealthInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- p.Serve(ctx, "127.0.0.1:0", time.Second, nil) }()
	waitUntil(t, func() bool { return a.count() > 0 }) // the prober has probed
	cancel()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	// The prober's keep-alive connection holds a client read/write loop
	// and a stub-side handler until it is closed; only a prober still
	// running can keep the count up after that.
	waitUntil(t, func() bool {
		p.health.client.CloseIdleConnections()
		return runtime.NumGoroutine() <= baseline
	})
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatal("condition not reached within 5s")
}
