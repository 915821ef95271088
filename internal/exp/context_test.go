package exp

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mnoc/internal/runner/artifact"
)

// small returns reduced options for cache-behaviour tests.
func small() Options {
	return Options{N: 16, Seed: 1, QAPIters: 50, Cycles: 1e6, SimAccesses: 20}
}

func TestPrecomputeJoinsAllErrors(t *testing.T) {
	c, err := NewContext(small())
	if err != nil {
		t.Fatal(err)
	}
	err = c.precomputeNames(bg, []string{"no_such_bench_a", "fft", "no_such_bench_b"}, 4)
	if err == nil {
		t.Fatal("bogus benchmarks precomputed without error")
	}
	msg := err.Error()
	for _, want := range []string{"no_such_bench_a", "no_such_bench_b"} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error misses %q: %v", want, msg)
		}
	}
}

func TestWarmStoreSkipsSolves(t *testing.T) {
	store := artifact.NewMemory()
	cold, err := NewContextWithStore(small(), store)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Precompute(bg, 4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cold.Performance(bg, "fft"); err != nil {
		t.Fatal(err)
	}
	cs := cold.Solves()
	if cs.Shapes == 0 || cs.QAP == 0 || cs.Sims == 0 {
		t.Fatalf("cold run did not solve: %+v", cs)
	}

	// A second context over the same store must load everything.
	warm, err := NewContextWithStore(small(), store)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Precompute(bg, 4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := warm.Performance(bg, "fft"); err != nil {
		t.Fatal(err)
	}
	if ws := warm.Solves(); ws != (SolveCounts{}) {
		t.Fatalf("warm run re-solved: %+v", ws)
	}

	// Warm values must be identical to cold ones.
	for _, name := range []string{"fft", "radix"} {
		cm, err := cold.Mapped(bg, name)
		if err != nil {
			t.Fatal(err)
		}
		wm, err := warm.Mapped(bg, name)
		if err != nil {
			t.Fatal(err)
		}
		for s := range cm.Counts {
			for d := range cm.Counts[s] {
				if cm.Counts[s][d] != wm.Counts[s][d] {
					t.Fatalf("%s mapped(%d,%d) differs: %v vs %v",
						name, s, d, cm.Counts[s][d], wm.Counts[s][d])
				}
			}
		}
	}

	// Different options must not alias the same artefacts.
	other := small()
	other.Seed = 2
	o, err := NewContextWithStore(other, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Shape(bg, "fft"); err != nil {
		t.Fatal(err)
	}
	if o.Solves().Shapes != 1 {
		t.Fatal("different seed hit the cache")
	}
}

// gateStore holds every Get of one key until release is closed, so a
// test can line callers up behind a fetch/solve that has started.
type gateStore struct {
	artifact.Store
	key     artifact.Key
	once    sync.Once
	entered chan struct{} // closed by the first Get of key
	release chan struct{}
}

func newGateStore() *gateStore {
	return &gateStore{Store: artifact.NewMemory(), entered: make(chan struct{}), release: make(chan struct{})}
}

func (s *gateStore) Get(key artifact.Key) ([]byte, bool, error) {
	if key == s.key {
		s.once.Do(func() { close(s.entered) })
		<-s.release
	}
	return s.Store.Get(key)
}

// TestCancelledLeaderKeepsFollowers: the caller that starts the
// 4M_G_S12 network solve is cancelled while a second caller waits on
// the same solve. The leader gets its cancellation; the live follower
// still gets the network.
func TestCancelledLeaderKeepsFollowers(t *testing.T) {
	store := newGateStore()
	c, err := NewContextWithStore(small(), store)
	if err != nil {
		t.Fatal(err)
	}
	store.key = c.key(artifact.KindNetwork, artifact.VersionNetwork).Str("design", "4M_G_S12").Sum()

	ctxA, cancelA := context.WithCancel(bg)
	defer cancelA()
	leader := make(chan error, 1)
	go func() {
		_, err := c.DesignNetwork(ctxA, DesignComm4)
		leader <- err
	}()
	<-store.entered // the leader's solve has started and is held at the store

	type result struct {
		net any
		err error
	}
	follower := make(chan result, 1)
	go func() {
		n, err := c.DesignNetwork(bg, DesignComm4)
		follower <- result{n, err}
	}()
	// Give the follower time to join the held solve. The verdict does
	// not depend on it: a follower that arrives after the leader has
	// left starts its own solve and must succeed just the same.
	time.Sleep(50 * time.Millisecond)
	cancelA()
	close(store.release)

	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled leader got %v, want context.Canceled", err)
	}
	r := <-follower
	if r.err != nil {
		t.Fatalf("live follower of a cancelled leader failed: %v", r.err)
	}
	if r.net == nil {
		t.Fatal("live follower got a nil network")
	}
}

// TestPerformanceAllConcurrentEntries runs the four entries that need
// every Performance sim at once, as the runner pool may, and checks
// that each sim still runs exactly once and that the tables equal a
// sequential run's.
func TestPerformanceAllConcurrentEntries(t *testing.T) {
	entries := []struct {
		id  string
		run func(context.Context, *Context) (*Table, error)
	}{
		{"fig10", Fig10}, {"table1", Table1}, {"summary", Summary}, {"trimsweep", TrimSweep},
	}
	seq, err := NewContext(small())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Table, len(entries))
	for i, e := range entries {
		if want[i], err = e.run(bg, seq); err != nil {
			t.Fatalf("sequential %s: %v", e.id, err)
		}
	}

	par, err := NewContext(small())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Table, len(entries))
	errs := make([]error, len(entries))
	var wg sync.WaitGroup
	for i, e := range entries {
		wg.Add(1)
		go func(i int, run func(context.Context, *Context) (*Table, error)) {
			defer wg.Done()
			got[i], errs[i] = run(bg, par)
		}(i, e.run)
	}
	wg.Wait()
	for i, e := range entries {
		if errs[i] != nil {
			t.Fatalf("concurrent %s: %v", e.id, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: concurrent table differs from sequential:\n got  %+v\n want %+v", e.id, got[i], want[i])
		}
	}
	bench := len(par.Benchmarks())
	for name, c := range map[string]*Context{"sequential": seq, "concurrent": par} {
		if sims := c.Solves().Sims; sims != uint64(bench) {
			t.Errorf("%s run solved %d sims, want %d (one per benchmark)", name, sims, bench)
		}
	}
}

// TestPerformanceAllCancelled checks that a cancelled context makes
// performanceAll return the context's error and that every goroutine it
// started has exited by then.
func TestPerformanceAllCancelled(t *testing.T) {
	c, err := NewContext(small())
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	cctx, cancel := context.WithCancel(bg)
	cancel()
	res, err := c.performanceAll(cctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled run returned results: %v", res)
	}
	if sims := c.Solves().Sims; sims != 0 {
		t.Errorf("cancelled run solved %d sims", sims)
	}
	// Goroutines that other tests started may still be exiting, so
	// allow them a moment; ours must already be gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after a cancelled performanceAll, %d before", n, before)
	}
}
