// Package work gives the goroleak fixtures cross-package callees. The
// spawn sites accept Pump and Relay because they are handed a context,
// and flag Spin because it is handed none; the analyzer never reads
// these bodies.
package work

import "context"

// Pump drains ch until the context is cancelled.
func Pump(ctx context.Context, ch chan int) {
	for {
		select {
		case <-ctx.Done():
			return
		case v := <-ch:
			_ = v
		}
	}
}

// Relay delegates to Pump, one call further from the spawn site.
func Relay(ctx context.Context, ch chan int) { Pump(ctx, ch) }

// Spin never observes anything.
func Spin() {
	for i := 0; ; i++ {
		_ = i
	}
}
