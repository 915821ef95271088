// Package base is the sink of the diamond fixture: facts established
// here must reach package top through both left and right.
package base

var global *int

// Wait receives from ch, so it observes cancellation.
func Wait(ch chan int) { <-ch }

// Keep stores p beyond the call.
func Keep(p *int) { global = p }

// Write mutates through p.
func Write(p *int) { *p = 1 }
