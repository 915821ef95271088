// Package left is one arm of the diamond.
package left

import "base"

// Via forwards the cancel-aware fact up to top.
func Via(ch chan int) { base.Wait(ch) }

// Lone is reached by nothing and reaches nothing.
func Lone() {}
