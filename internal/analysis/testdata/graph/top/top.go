// Package top is the apex of the diamond fixture.
package top

import (
	"base"
	"left"
	"right"
)

// Top reaches base through either arm, through the method value, and
// through the local hops below.
func Top(ch chan int, p *int) {
	left.Via(ch)
	right.Also(ch)
	_ = right.Handle()
	forward(p)
	writer(p)
}

// forward only escapes p one hop further down.
func forward(p *int) { base.Keep(p) }

// writer only mutates p one hop further down.
func writer(p *int) { base.Write(p) }
