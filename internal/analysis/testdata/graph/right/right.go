// Package right is the other arm of the diamond, reaching base only
// through a method value.
package right

import "base"

type R struct{ ch chan int }

// M waits on the receiver's channel.
func (r R) M() { base.Wait(r.ch) }

// Handle returns r.M as a method value: facts must flow along the
// reference edge even though there is no call.
func Handle() func() {
	var r R
	return r.M
}

// Also duplicates left's path to Wait, closing the diamond.
func Also(ch chan int) { base.Wait(ch) }
