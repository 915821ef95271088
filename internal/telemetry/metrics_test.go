package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the "first bound >= v" bucket
// semantics, including edge values exactly on a bound, the overflow
// bucket, and bound sanitisation.
func TestHistogramBucketBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name    string
		bounds  []float64
		observe []float64
		want    []uint64 // per-bucket counts, last = +Inf overflow
		count   uint64
		sum     float64
	}{
		{
			name:    "on-boundary lands in the bucket",
			bounds:  []float64{1, 2, 4},
			observe: []float64{1, 2, 4},
			want:    []uint64{1, 1, 1, 0},
			count:   3, sum: 7,
		},
		{
			name:    "between bounds rounds up",
			bounds:  []float64{1, 2, 4},
			observe: []float64{1.5, 3, 3.999},
			want:    []uint64{0, 1, 2, 0},
			count:   3, sum: 8.499,
		},
		{
			name:    "below first bound",
			bounds:  []float64{1, 2},
			observe: []float64{-5, 0, 0.5},
			want:    []uint64{3, 0, 0},
			count:   3, sum: -4.5,
		},
		{
			name:    "overflow bucket",
			bounds:  []float64{1, 2},
			observe: []float64{2.0001, 1e12},
			want:    []uint64{0, 0, 2},
			count:   2, sum: 2.0001 + 1e12,
		},
		{
			name:    "unsorted duplicate bounds are sanitised",
			bounds:  []float64{4, 1, 4, 2},
			observe: []float64{1, 3, 100},
			want:    []uint64{1, 0, 1, 1},
			count:   3, sum: 104,
		},
		{
			name:    "non-finite bounds dropped, non-finite observations ignored",
			bounds:  []float64{math.Inf(1), 1, math.NaN()},
			observe: []float64{0.5, math.NaN(), math.Inf(1), math.Inf(-1), 2},
			want:    []uint64{1, 1},
			count:   2, sum: 2.5,
		},
		{
			name:    "no bounds: overflow-only aggregate",
			bounds:  nil,
			observe: []float64{1, 2, 3},
			want:    []uint64{3},
			count:   3, sum: 6,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewRegistry().Histogram("h", tc.bounds...)
			for _, v := range tc.observe {
				h.Observe(v)
			}
			s := h.snapshot()
			got := make([]uint64, len(s.Buckets))
			for i, b := range s.Buckets {
				got[i] = b.Count
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("bucket counts = %v, want %v (buckets %+v)", got, tc.want, s.Buckets)
			}
			if s.Buckets[len(s.Buckets)-1].LE != "+Inf" {
				t.Errorf("last bucket bound = %q, want +Inf", s.Buckets[len(s.Buckets)-1].LE)
			}
			if h.Count() != tc.count {
				t.Errorf("count = %d, want %d", h.Count(), tc.count)
			}
			if math.Abs(h.Sum()-tc.sum) > 1e-9*math.Max(1, math.Abs(tc.sum)) {
				t.Errorf("sum = %g, want %g", h.Sum(), tc.sum)
			}
		})
	}
}

// TestConcurrentCounters hammers one counter, one gauge and one
// histogram from many goroutines; run under -race by `make check`.
func TestConcurrentCounters(t *testing.T) {
	const goroutines, perG = 16, 2000
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Same names from every goroutine: the get-or-create path is
			// contended too, not just the increments.
			c := reg.Counter("c")
			gauge := reg.Gauge("g")
			h := reg.Histogram("h", 0.5)
			for i := 0; i < perG; i++ {
				c.Inc()
				gauge.Add(1)
				h.Observe(float64(i % 2))
			}
		}()
	}
	wg.Wait()
	const total = goroutines * perG
	if v := reg.Counter("c").Value(); v != total {
		t.Errorf("counter = %d, want %d", v, total)
	}
	if v := reg.Gauge("g").Value(); v != total {
		t.Errorf("gauge = %g, want %d", v, total)
	}
	h := reg.Histogram("h")
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	s := h.snapshot()
	if s.Buckets[0].Count != total/2 || s.Buckets[1].Count != total/2 {
		t.Errorf("histogram split = %+v, want %d/%d", s.Buckets, total/2, total/2)
	}
}

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Add(3)
	reg.Gauge("x").Set(1)
	reg.Histogram("x", 1, 2).Observe(5)
	if v := reg.Counter("x").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	if got := reg.Snapshot(); len(got.Names()) != 0 {
		t.Errorf("nil registry snapshot has names: %v", got.Names())
	}
	var tr *Tracer
	tr.StartSpan("a", "b").Attr("k", "v").End()
	tr.Event("a", "b", "k", "v")
	tr.Record(Span{})
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Spans() != nil {
		t.Error("nil tracer is not a no-op")
	}
}

func TestSnapshotJSONAndNames(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.count").Add(2)
	reg.Gauge("a.depth").Set(1.5)
	reg.Histogram("c.ms", 1, 10).Observe(3)
	s := reg.Snapshot()
	if got, want := s.Names(), []string{"a.depth", "b.count", "c.ms"}; !reflect.DeepEqual(got, want) {
		t.Errorf("names = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	rep := Report{Meta: map[string]any{"subcommand": "bench"}, Metrics: s}
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v\n%s", err, buf.String())
	}
	if back.Metrics.Counters["b.count"] != 2 || back.Metrics.Histograms["c.ms"].Count != 1 {
		t.Errorf("round-tripped report = %+v", back)
	}
	// Non-finite gauge values are sanitised rather than breaking export.
	reg.Gauge("bad").Set(math.Inf(1))
	var buf2 bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf2); err != nil {
		t.Fatalf("snapshot with Inf gauge fails to export: %v", err)
	}
	if !json.Valid(buf2.Bytes()) {
		t.Fatal("snapshot export is not valid JSON")
	}
}

// TestHistogramMergeMatchesObserve checks that one Merge of locally
// counted buckets leaves exactly the state of one Observe per value,
// from one goroutine and from many at once, and that a nil histogram
// ignores Merge.
func TestHistogramMergeMatchesObserve(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	values := []float64{0, 1, 1, 2, 3, 4, 5, 8, 9, 1000}
	// Bucket layout of `bounds`: first bound >= v, overflow last.
	counts := []uint64{3, 1, 2, 2, 2}
	var sum float64
	for _, v := range values {
		sum += v
	}

	var nilH *Histogram
	nilH.Merge(counts, sum) // must not panic

	const goroutines, batches = 8, 50
	for _, concurrent := range []bool{false, true} {
		merged, observed := NewRegistry(), NewRegistry()
		mh := merged.Histogram("h", bounds...)
		oh := observed.Histogram("h", bounds...)
		workers := 1
		if concurrent {
			workers = goroutines
		}
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					mh.Merge(counts, sum)
					for _, v := range values {
						oh.Observe(v)
					}
				}
			}()
		}
		wg.Wait()
		if got, want := mh.snapshot(), oh.snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("concurrent=%v: Merge state %+v, Observe state %+v", concurrent, got, want)
		}
		if got, want := mh.Count(), uint64(workers*batches*len(values)); got != want {
			t.Errorf("concurrent=%v: count = %d, want %d", concurrent, got, want)
		}
	}
}

// TestHistogramMergeEdgeCases pins the non-finite-sum drop and the
// panic on a bucket-layout mismatch.
func TestHistogramMergeEdgeCases(t *testing.T) {
	h := NewRegistry().Histogram("h", 1, 2)
	h.Merge([]uint64{1, 0, 0}, math.NaN())
	h.Merge([]uint64{1, 0, 0}, math.Inf(1))
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("non-finite batches recorded: count %d sum %g", h.Count(), h.Sum())
	}
	defer func() {
		if recover() == nil {
			t.Error("Merge with the wrong number of buckets did not panic")
		}
	}()
	h.Merge([]uint64{1, 2}, 3)
}
