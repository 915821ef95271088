package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mnoc/internal/exp"
	"mnoc/internal/runner"
	"mnoc/internal/telemetry"
)

// testOptions keeps fleet tests fast: the same radix-16 scale the
// server tests use.
func testOptions() *exp.Options {
	return &exp.Options{N: 16, Seed: 1, QAPIters: 50, Cycles: 1e6, SimAccesses: 20}
}

func sweepEntries(t *testing.T, ids ...string) []exp.Entry {
	t.Helper()
	entries := make([]exp.Entry, len(ids))
	for i, id := range ids {
		e, err := exp.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = e
	}
	return entries
}

// TestSweepMatchesSingleProcess runs the remote sweep against two live
// replicas: the joined output must equal a single-process run of the
// same entries at every pool width, every id counts as one unit, and
// an id a backend rejects fails the sweep with an error naming it.
func TestSweepMatchesSingleProcess(t *testing.T) {
	ctx := context.Background()
	ids := []string{"table1", "fig2", "fig3"}
	r, err := runner.New(runner.Config{Options: testOptions()})
	if err != nil {
		t.Fatal(err)
	}
	var single bytes.Buffer
	if err := r.Run(ctx, &single, sweepEntries(t, ids...)); err != nil {
		t.Fatal(err)
	}
	_, tsA := newRealBackend(t)
	_, tsB := newRealBackend(t)
	endpoints := []string{tsA.URL, tsB.URL}
	for _, workers := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		got, err := RemoteSweep(ctx, ids, endpoints, workers, time.Minute, reg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(got, single.Bytes()) {
			t.Fatalf("workers=%d: remote output differs from single-process run:\n--- remote ---\n%s\n--- single ---\n%s",
				workers, got, single.Bytes())
		}
		if units := reg.Snapshot().Counters[MetricSweepUnits]; units != 3 {
			t.Fatalf("workers=%d: units=%d, want 3", workers, units)
		}
	}
	_, err = RemoteSweep(ctx, []string{"table1", "nosuch"}, endpoints, 2, time.Minute, nil)
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("rejected id: err=%v, want an error naming nosuch", err)
	}
}

// benchStub is a /v1/bench backend that answers every id with an empty
// table list, rejects ids starting with "bad", and records what it saw.
type benchStub struct {
	mu  sync.Mutex
	ids []string
}

func newBenchStub(t *testing.T) (*benchStub, *httptest.Server) {
	t.Helper()
	b := &benchStub{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct{ ID string }
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b.mu.Lock()
		b.ids = append(b.ids, req.ID)
		b.mu.Unlock()
		if strings.HasPrefix(req.ID, "bad") {
			http.Error(w, "unknown experiment "+req.ID, http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, "[]")
	}))
	t.Cleanup(ts.Close)
	return b, ts
}

func (b *benchStub) seen() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.ids...)
}

// TestRunUnitsError pins fail-fast: an id a backend rejects cancels the
// sweep, ids after it never start, and the error names the rejected id.
func TestRunUnitsError(t *testing.T) {
	stub, ts := newBenchStub(t)
	_, err := RemoteSweep(context.Background(), []string{"ok", "bad", "after"}, []string{ts.URL}, 1, time.Minute, nil)
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err=%v, want an error naming the rejected id", err)
	}
	if got := stub.seen(); len(got) != 2 || got[0] != "ok" || got[1] != "bad" {
		t.Fatalf("backend saw %q, want [ok bad]: the sweep must stop at the rejected id", got)
	}
}

// TestRunUnitsWorkerIndexBounds pins that each worker index maps onto a
// real endpoint, whether the pool is as wide as, wider or narrower than
// the endpoint list: every id reaches a backend exactly once.
func TestRunUnitsWorkerIndexBounds(t *testing.T) {
	ids := make([]string, 10)
	for i := range ids {
		ids[i] = fmt.Sprintf("u%d", i)
	}
	for _, tc := range []struct{ workers, endpoints int }{{3, 3}, {5, 2}, {2, 3}} {
		stubs := make([]*benchStub, tc.endpoints)
		endpoints := make([]string, tc.endpoints)
		for i := range stubs {
			var ts *httptest.Server
			stubs[i], ts = newBenchStub(t)
			endpoints[i] = ts.URL
		}
		if _, err := RemoteSweep(context.Background(), ids, endpoints, tc.workers, time.Minute, nil); err != nil {
			t.Fatalf("workers=%d endpoints=%d: %v", tc.workers, tc.endpoints, err)
		}
		seen := map[string]int{}
		for _, s := range stubs {
			for _, id := range s.seen() {
				seen[id]++
			}
		}
		for _, id := range ids {
			if seen[id] != 1 {
				t.Fatalf("workers=%d endpoints=%d: id %s reached backends %d times, want 1", tc.workers, tc.endpoints, id, seen[id])
			}
		}
	}
}
