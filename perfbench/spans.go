package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer's public entry point.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int    `json:"req"`    // request or walk the span belongs to; 0 = set-up
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps every span in memory; nothing is written until the
// run ends, so file I/O never lands inside a timed interval. A nil
// recorder records nothing, which is how the untraced runs use the
// same code paths.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// start opens a span and returns the function that closes it and its
// ID (for children). Safe for concurrent use.
func (r *recorder) start(parent, req int, layer, name string) (end func(), id int) {
	if r == nil {
		return func() {}, 0
	}
	begin := time.Since(r.origin)
	r.mu.Lock()
	id = len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, Start: int64(begin)})
	r.mu.Unlock()
	return func() {
		now := time.Since(r.origin)
		r.mu.Lock()
		r.spans[id-1].End = int64(now)
		r.mu.Unlock()
	}, id
}

// byName returns the durations of every span with the given name.
func (r *recorder) byName(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each layer's self time over the spans recorded
// after the first `from`: for every span, its duration minus the part
// of its interval covered by the union of its children, summed per
// layer. Children that run in parallel (entries on the runner's pool)
// are merged first, so overlap is not subtracted twice.
func (r *recorder) selfTimes(from int) map[string]time.Duration {
	spans := r.spans[from:]
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// write writes every span to path, one JSON object per line; an empty
// path writes nothing.
func (r *recorder) write(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
