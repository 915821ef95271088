package telemetry

import (
	"math"
	"sort"
	"strconv"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. All methods are
// no-ops on a nil receiver, so instrumentation needs no guards.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 (queue depths, last-seen values). Safe
// for concurrent Set/Add/Value; no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds delta (CAS loop).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets with upper bounds
// fixed at construction (plus an implicit +Inf overflow bucket). An
// observation v lands in the first bucket whose bound is >= v.
// Observe is lock-free: two atomic adds plus a CAS for the sum.
// NaN and ±Inf observations are ignored so exports stay valid JSON.
type Histogram struct {
	bounds []float64 // sorted, deduplicated, finite; immutable
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    Gauge
}

// newHistogram sanitises the bounds: sort ascending, drop duplicates
// and non-finite values. With no usable bounds every observation lands
// in the overflow bucket (still a usable count/sum aggregate).
func newHistogram(bounds []float64) *Histogram {
	clean := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if !math.IsNaN(b) && !math.IsInf(b, 0) {
			clean = append(clean, b)
		}
	}
	sort.Float64s(clean)
	n := 0
	for i, b := range clean {
		if i == 0 || b != clean[i-1] {
			clean[n] = b
			n++
		}
	}
	clean = clean[:n]
	return &Histogram{
		bounds: clean,
		counts: make([]atomic.Uint64, len(clean)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len = overflow
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Merge folds a batch of observations counted elsewhere into the
// histogram: counts[i] observations in bucket i (the histogram's bucket
// layout, overflow last) whose values add up to sum. One Merge leaves
// the same state as one Observe per value, the sum bit for bit whenever
// the additions are exact (integer values), so a hot loop can count
// locally and publish once. A non-finite sum drops the whole batch, as
// Observe drops non-finite values. Merge panics if counts does not
// match the bucket layout, which only a caller bug produces.
func (h *Histogram) Merge(counts []uint64, sum float64) {
	if h == nil || math.IsNaN(sum) || math.IsInf(sum, 0) {
		return
	}
	if len(counts) != len(h.counts) {
		panic("telemetry: Merge with " + strconv.Itoa(len(counts)) +
			" bucket counts into a histogram of " + strconv.Itoa(len(h.counts)))
	}
	var n uint64
	for i, c := range counts {
		if c != 0 {
			h.counts[i].Add(c)
			n += c
		}
	}
	h.count.Add(n)
	h.sum.Add(sum)
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// snapshot copies the histogram state for export.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Buckets: make([]BucketCount, len(h.counts)),
		Count:   h.count.Load(),
		Sum:     h.sum.Value(),
	}
	for i := range h.counts {
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		s.Buckets[i] = BucketCount{LE: formatBound(bound), Count: h.counts[i].Load()}
	}
	return s
}
