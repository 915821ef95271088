// Package flight coalesces concurrent calls that compute the same
// value. It is the one singleflight in the module: the server uses it
// to collapse identical requests, and exp.Context uses it to build each
// shared artefact (traffic, QAP mappings, splitter networks,
// simulations) once per process.
package flight

import (
	"context"
	"sync"

	"mnoc/internal/telemetry"
)

// Group coalesces concurrent calls by key: the first caller for a key
// becomes the leader and starts fn once; later callers with the same
// key join the in-flight computation and share its result. Unlike
// x/sync/singleflight the computation runs on its own goroutine under
// its own context, detached from any one caller: a waiter whose context
// expires leaves without cancelling the work, and only when the LAST
// waiter leaves is the flight context cancelled, so an abandoned
// computation stops at its next cancellation checkpoint. A cancelled
// leader therefore never fails the followers still waiting.
type Group struct {
	mu        sync.Mutex
	flights   map[string]*call
	coalesced *telemetry.Counter // joins onto an existing flight; may be nil
}

type call struct {
	done    chan struct{} // closed when fn returns
	val     any
	err     error
	waiters int
	cancel  context.CancelFunc
}

// New returns an empty group. coalesced, when non-nil, counts the
// callers that joined an existing flight.
func New(coalesced *telemetry.Counter) *Group {
	return &Group{flights: make(map[string]*call), coalesced: coalesced}
}

// Do returns fn's result for key, running fn at most once per flight.
// ctx bounds this caller's wait, not the computation; fn receives the
// flight's context, which is cancelled only when every waiter has left.
func (g *Group) Do(ctx context.Context, key string, fn func(context.Context) (any, error)) (any, error) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		f.waiters++
		g.coalesced.Inc()
		g.mu.Unlock()
		return g.wait(ctx, key, f)
	}
	//mnoclint:allow ctxthread the flight deliberately outlives any single caller; it is cancelled via cancel() when the last waiter abandons it, not by the first caller's ctx
	fctx, cancel := context.WithCancel(context.Background())
	f := &call{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.flights[key] = f
	g.mu.Unlock()
	go func() {
		f.val, f.err = fn(fctx)
		close(f.done)
		cancel()
		g.mu.Lock()
		// Only remove our own entry: a fully-abandoned flight may have
		// been deleted already, and a new flight may own the key.
		if g.flights[key] == f {
			delete(g.flights, key)
		}
		g.mu.Unlock()
	}()
	return g.wait(ctx, key, f)
}

// wait blocks until the flight completes or ctx expires; leaving early
// releases this caller's claim on the flight.
func (g *Group) wait(ctx context.Context, key string, f *call) (any, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		g.leave(key, f)
		return nil, ctx.Err()
	}
}

// leave drops one waiter; the last one out cancels the computation and
// unpublishes the flight so new callers start fresh instead of joining
// a dying one.
func (g *Group) leave(key string, f *call) {
	g.mu.Lock()
	f.waiters--
	if f.waiters == 0 {
		f.cancel()
		if g.flights[key] == f {
			delete(g.flights, key)
		}
	}
	g.mu.Unlock()
}
