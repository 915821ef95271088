// Fixtures for the goroleak analyzer, in a package named server so the
// scope rule applies.
package server

import (
	"context"

	"work"
)

func okLiteralSelect(ctx context.Context, ch chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case v := <-ch:
				_ = v
			}
		}
	}()
}

func okNamedCallee(ctx context.Context, ch chan int) {
	go work.Pump(ctx, ch)
}

// okTransitive spawns a function whose cancellation check is one more
// call away; the context it is handed clears it at the spawn site.
func okTransitive(ctx context.Context, ch chan int) {
	go work.Relay(ctx, ch)
}

func okLiteralCallsAware(ctx context.Context, ch chan int) {
	go func() {
		work.Pump(ctx, ch)
	}()
}

func okDynamicWithContext(ctx context.Context, fn func(context.Context)) {
	go fn(ctx)
}

func okRangeOverChannel(ch chan int) {
	go func() {
		for v := range ch {
			_ = v
		}
	}()
}

func badLiteral(ch chan int) {
	go func() { // want `goroleak: goroutine has no cancellation path`
		for {
			ch <- 1
		}
	}()
}

func badNamed() {
	go work.Spin() // want `goroleak: goroutine running Spin has no cancellation path`
}

func badDynamic(fn func()) {
	go fn() // want `goroleak: goroutine spawned through a function value without a context`
}

func allowedSpawn(ch chan int) {
	//mnoclint:allow goroleak sends once into a buffered channel and exits
	go func() {
		ch <- 1
	}()
}
