package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"mnoc/internal/telemetry"
)

// TestAdmissionOverload: a full queue rejects immediately; a request
// whose deadline expires while waiting for a worker surfaces
// context.DeadlineExceeded without running fn.
func TestAdmissionOverload(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := newAdmission(1, 1, reg)

	block := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.do(context.Background(), func(context.Context) (any, error) {
			close(started)
			<-block
			return nil, nil
		})
	}()
	<-started // queue and worker both held

	if _, err := a.do(context.Background(), nil); !errors.Is(err, errOverloaded) {
		t.Fatalf("got %v, want errOverloaded", err)
	}
	if got := reg.Counter("server.rejected").Value(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}

	close(block)
	<-done

	// Queue free, worker occupied directly: a deadline fires while
	// queued and fn never runs.
	a.workers <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := a.do(ctx, func(context.Context) (any, error) {
		t.Error("fn ran despite expired deadline")
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	<-a.workers

	// Both stages released their slots.
	if _, err := a.do(context.Background(), func(context.Context) (any, error) { return 1, nil }); err != nil {
		t.Fatalf("admission did not recover: %v", err)
	}
}
