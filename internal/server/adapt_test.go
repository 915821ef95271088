package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"mnoc/internal/adapt"
	"mnoc/internal/workload"
)

// TestHealthzDraining is the regression test for the drain handshake:
// once graceful drain begins, /healthz flips to 503 `draining` so load
// balancers stop routing before the listener closes.
func TestHealthzDraining(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d, want 200", resp.StatusCode)
	}

	s.StartDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", resp.StatusCode)
	}
	if body.Status != "draining" {
		t.Fatalf("healthz during drain: status %q, want \"draining\"", body.Status)
	}
}

// adaptTestController builds a small controller and replays
// the canonical phase-shift workload through it.
func adaptTestController(t *testing.T) *adapt.Controller {
	t.Helper()
	c, err := adapt.NewController(adapt.Config{
		N:            16,
		WindowCycles: 25_000,
		Seed:         7,
		QAPIters:     100,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.PhasedTrace(16, []workload.Phase{
		{Bench: "water_s", Cycles: 100_000, Flits: 2000},
		{Bench: "radix", Cycles: 100_000, Flits: 2000},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Replay(tr, nil); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAdaptEndpoints(t *testing.T) {
	cfg := testConfig()
	cfg.Adapt = adaptTestController(t)
	_, ts := newTestServer(t, cfg)

	resp, err := http.Get(ts.URL + "/v1/adapt")
	if err != nil {
		t.Fatal(err)
	}
	var st adapt.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/adapt: %d", resp.StatusCode)
	}
	if st.Counts.Swaps < 1 || st.Generation == 0 {
		t.Fatalf("/v1/adapt reported no adaptation: %+v", st)
	}

	resp, body := post(t, ts.URL+"/v1/adapt/evaluate", map[string]string{"bench": "fft"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/adapt/evaluate: %d: %s", resp.StatusCode, body)
	}
	var ev AdaptEvaluateResponse
	if err := json.Unmarshal(body, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Generation != st.Generation {
		t.Errorf("evaluate answered at gen %d, status reports gen %d", ev.Generation, st.Generation)
	}
	if ev.TotalWatts <= 0 {
		t.Errorf("evaluate total_watts = %v, want > 0", ev.TotalWatts)
	}

	resp, body = post(t, ts.URL+"/v1/adapt/evaluate", map[string]string{"bench": "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown bench: %d, want 400: %s", resp.StatusCode, body)
	}
}

func TestAdaptDisabled(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/v1/adapt")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/adapt without -adapt: %d, want 404", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/adapt/evaluate", map[string]string{"bench": "fft"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/adapt/evaluate without -adapt: %d, want 404", resp.StatusCode)
	}
}
