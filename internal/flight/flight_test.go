package flight

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mnoc/internal/telemetry"
)

// TestFlightGroupCoalesces: with the leader's fn parked on a channel,
// every concurrent Do for the same key joins the one flight — fn runs
// once, the coalesced counter counts the joins, and all callers get
// the leader's result.
func TestFlightGroupCoalesces(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := New(reg.Counter("server.coalesced"))

	started := make(chan struct{})
	release := make(chan struct{})
	runs := 0
	fn := func(context.Context) (any, error) {
		runs++
		close(started)
		<-release
		return "result", nil
	}

	leaderDone := make(chan struct{})
	var leaderVal any
	var leaderErr error
	go func() {
		defer close(leaderDone)
		leaderVal, leaderErr = g.Do(context.Background(), "k", fn)
	}()
	<-started // fn is running; the flight is published

	const joiners = 7
	var wg sync.WaitGroup
	vals := make([]any, joiners)
	errs := make([]error, joiners)
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = g.Do(context.Background(), "k", func(context.Context) (any, error) {
				t.Error("joiner ran its own fn")
				return nil, nil
			})
		}(i)
	}
	// Joins happen-before each waiter blocks on done, and the counter is
	// bumped under the group lock at join time.
	waitFor(t, func() bool { return reg.Counter("server.coalesced").Value() == joiners })
	close(release)
	<-leaderDone
	wg.Wait()

	if runs != 1 {
		t.Errorf("fn ran %d times, want 1", runs)
	}
	if leaderVal != "result" || leaderErr != nil {
		t.Errorf("leader got (%v, %v)", leaderVal, leaderErr)
	}
	for i := 0; i < joiners; i++ {
		if vals[i] != "result" || errs[i] != nil {
			t.Errorf("joiner %d got (%v, %v)", i, vals[i], errs[i])
		}
	}
	g.mu.Lock()
	if len(g.flights) != 0 {
		t.Errorf("%d flights left in the map", len(g.flights))
	}
	g.mu.Unlock()
}

// TestFlightGroupLastWaiterCancels: when the only waiter abandons the
// flight, the computation's context is cancelled and the key is
// unpublished so the next Do starts a fresh flight.
func TestFlightGroupLastWaiterCancels(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := New(reg.Counter("server.coalesced"))

	started := make(chan struct{})
	cancelled := make(chan struct{})
	fn := func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		close(cancelled)
		return nil, ctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Do(ctx, "k", fn)
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned waiter got %v, want context.Canceled", err)
	}
	// The last waiter leaving cancels the flight context...
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("flight context never cancelled")
	}
	// ...and unpublishes the key, so a new Do runs fresh rather than
	// joining the dying flight.
	val, err := g.Do(context.Background(), "k", func(context.Context) (any, error) {
		return "fresh", nil
	})
	if val != "fresh" || err != nil {
		t.Fatalf("fresh Do got (%v, %v)", val, err)
	}
	if got := reg.Counter("server.coalesced").Value(); got != 0 {
		t.Errorf("coalesced = %d, want 0", got)
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
