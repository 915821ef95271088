// Package fanout is the one bounded worker pool in the module. The
// experiment context, the runner, the fault sweep, the remote fleet
// sweep and the load generator all schedule their independent items
// through Run, and each keeps its own error policy (join, first error,
// fail-fast cancel) in the fn it passes.
package fanout

import (
	"context"
	"sync"
	"sync/atomic"
)

// Run calls fn(worker, i) for every i in [0, n) on at most
// min(workers, n) goroutines (workers < 1 counts as 1). Indices are
// handed out in increasing order from one shared counter, so an item
// never waits behind a slower worker's backlog, and with one worker
// the calls run in index order. worker is in [0, min(workers, n)).
//
// Once ctx is done no further index is handed out; calls already
// started run to completion, so fn that wants to stop early observes
// its own context. Run returns only after every started call has
// returned. fn takes no context: callers close over theirs, so the
// loop's ctx check is the only cancellation path the goroleak lint
// sees here, and deleting it is a finding.
func Run(ctx context.Context, n, workers int, fn func(worker, i int)) {
	workers = min(max(workers, 1), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
