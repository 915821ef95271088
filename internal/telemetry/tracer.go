package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one recorded interval: a component (the subsystem — "runner",
// "sim", "exp", "fault"), a name, the start offset from the tracer's
// epoch and the duration, both in microseconds, plus free-form
// attributes. Zero-duration spans serve as point events.
type Span struct {
	Component string            `json:"component"`
	Name      string            `json:"name"`
	StartUS   int64             `json:"start_us"`
	DurUS     int64             `json:"dur_us"`
	Attrs     map[string]string `json:"attrs,omitempty"`
}

// DefaultTraceCapacity bounds a tracer's ring buffer when callers pass
// a non-positive capacity.
const DefaultTraceCapacity = 16384

// Tracer records spans into a bounded ring buffer: once full, new spans
// overwrite the oldest (Dropped counts the overwritten ones). All
// methods are safe for concurrent use and no-ops on a nil receiver.
type Tracer struct {
	mu      sync.Mutex
	buf     []Span
	next    int // insertion index once the ring has wrapped
	full    bool
	dropped uint64
	epoch   time.Time
	now     func() time.Time // injectable for tests
}

// NewTracer returns a tracer holding up to capacity spans
// (DefaultTraceCapacity if capacity < 1). The epoch — span start
// offsets are relative to it — is the creation time.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = DefaultTraceCapacity
	}
	t := &Tracer{buf: make([]Span, 0, capacity), now: time.Now}
	t.epoch = t.now()
	return t
}

// record appends s, overwriting the oldest span when full.
func (t *Tracer) record(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full && len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, s)
		return
	}
	t.full = true
	t.buf[t.next] = s
	t.next = (t.next + 1) % cap(t.buf)
	t.dropped++
}

// Record stores a pre-built span (e.g. one timed in simulation cycles
// rather than wall time). Nil-safe.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.record(s)
}

// Event records a zero-duration span at the current time. attrs are
// alternating key/value pairs; a trailing odd key is ignored.
func (t *Tracer) Event(component, name string, attrs ...string) {
	if t == nil {
		return
	}
	var m map[string]string
	if len(attrs) >= 2 {
		m = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			m[attrs[i]] = attrs[i+1]
		}
	}
	t.record(Span{
		Component: component,
		Name:      name,
		StartUS:   t.now().Sub(t.epoch).Microseconds(),
		Attrs:     m,
	})
}

// ActiveSpan is an in-progress span; call End to record it.
type ActiveSpan struct {
	t     *Tracer
	span  Span
	begin time.Time
}

// StartSpan begins a wall-clock span. Returns nil (whose methods are
// no-ops) on a nil tracer.
func (t *Tracer) StartSpan(component, name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	begin := t.now()
	return &ActiveSpan{
		t:     t,
		begin: begin,
		span: Span{
			Component: component,
			Name:      name,
			StartUS:   begin.Sub(t.epoch).Microseconds(),
		},
	}
}

// Attr attaches a key/value attribute and returns the span for
// chaining.
func (a *ActiveSpan) Attr(k, v string) *ActiveSpan {
	if a == nil {
		return nil
	}
	if a.span.Attrs == nil {
		a.span.Attrs = make(map[string]string, 2)
	}
	a.span.Attrs[k] = v
	return a
}

// End records the span and returns its duration.
func (a *ActiveSpan) End() time.Duration {
	if a == nil {
		return 0
	}
	d := a.t.now().Sub(a.begin)
	if d < 0 {
		d = 0
	}
	a.span.DurUS = d.Microseconds()
	a.t.record(a.span)
	return d
}

// Spans returns the recorded spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.buf))
	if t.full {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Len reports the number of buffered spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Dropped reports how many spans were overwritten after the ring
// filled.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteJSONL writes one JSON object per span, oldest first — the
// grep/jq-friendly export.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range t.Spans() {
		blob, err := json.Marshal(s)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		if _, err := bw.Write(append(blob, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one entry of the Chrome trace-event format
// (https://chromium.googlesource.com/catapult trace_event spec): "X"
// complete events carry ts/dur in microseconds; "M" metadata events
// name the per-component rows.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the spans in Chrome trace-event JSON, loadable
// in chrome://tracing or https://ui.perfetto.dev. Components map to
// named rows (tids) in a single process.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	comps := make([]string, 0, 4)
	seen := map[string]int{}
	for _, s := range spans {
		if _, ok := seen[s.Component]; !ok {
			seen[s.Component] = 0
			comps = append(comps, s.Component)
		}
	}
	sort.Strings(comps)
	for i, c := range comps {
		seen[c] = i + 1
	}
	events := make([]chromeEvent, 0, len(spans)+len(comps))
	for _, c := range comps {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: seen[c],
			Args: map[string]any{"name": c},
		})
	}
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name, Cat: s.Component, Ph: "X",
			TS: s.StartUS, Dur: s.DurUS, PID: 1, TID: seen[s.Component],
		}
		if len(s.Attrs) > 0 {
			args := make(map[string]any, len(s.Attrs))
			for k, v := range s.Attrs {
				args[k] = v
			}
			ev.Args = args
		}
		events = append(events, ev)
	}
	blob, err := json.MarshalIndent(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}, "", " ")
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	blob = append(blob, '\n')
	_, err = w.Write(blob)
	return err
}
