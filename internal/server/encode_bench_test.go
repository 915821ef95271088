// Serve-path encode/decode benchmarks (srtjson-style tables with
// b.ReportAllocs), tracked by `make bench` in BENCH_baseline.json: the
// encode table prices each response body through WriteJSON, the decode
// table sizes the request-parsing cost across batch widths.
package server

import (
	"net/http"
	"runtime/debug"
	"strings"
	"testing"
)

// BenchmarkWriteJSON measures the whole WriteJSON call — header set,
// indented encode, write — against a discarding ResponseWriter, for
// the two hot response bodies and a generic map.
func BenchmarkWriteJSON(b *testing.B) {
	cases := []struct {
		name string
		v    any
	}{
		{"solve", &SolveResponse{
			Bench: "water_s", Kind: "dist4", QAP: true,
			BreakdownDTO: BreakdownDTO{SourceUW: 10734.2, OEUW: 1792.04, ElecUW: 412.5},
			TotalWatts:   0.01293874, BaseWatts: 0.04417, Normalized: 0.29293,
		}},
		{"evaluate", &EvaluateResponse{
			Bench: "fft", Policy: "comm4", QAP: true, Scale: 4, LossModel: "worst",
			TotalWatts: 0.021, BaseWatts: 0.044, MNoCCycles: 1284772, RNoCCycles: 3391205,
			Speedup: 2.6395,
		}},
		{"generic-map", map[string]any{"status": "ok", "detail": "fallback path"}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			w := &discardResponseWriter{h: make(http.Header, 2)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				WriteJSON(w, 200, tc.v)
			}
		})
	}
}

type discardResponseWriter struct{ h http.Header }

func (w *discardResponseWriter) Header() http.Header         { return w.h }
func (w *discardResponseWriter) WriteHeader(int)             {}
func (w *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkRequestDecode measures decodePost across request sizes: the
// evaluate request is fixed-width, the bench-list solve request grows
// with the number of requested benchmarks.
func BenchmarkRequestDecode(b *testing.B) {
	evaluate := `{"bench":"fft","policy":"comm4","qap":true,"scale":2.5,"loss_model":"worst"}`
	cases := []struct {
		name string
		body string
		v    func() any
	}{
		{"evaluate", evaluate, func() any { return new(EvaluateRequest) }},
		{"solve", `{"bench":"water_s","kind":"dist4","qap":true}`, func() any { return new(SolveRequest) }},
	}
	s := &Server{}
	w := &discardResponseWriter{h: make(http.Header, 2)}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(tc.body)))
			for i := 0; i < b.N; i++ {
				req, err := http.NewRequest("POST", "/", strings.NewReader(tc.body))
				if err != nil {
					b.Fatal(err)
				}
				if !s.decodePost(w, req, tc.v()) {
					b.Fatal("decodePost rejected a well-formed body")
				}
			}
		})
	}
}

// TestDecodePostAllocationCount pins decodePost's allocations for the
// two BenchmarkRequestDecode bodies, request construction included.
func TestDecodePostAllocationCount(t *testing.T) {
	s := &Server{}
	w := &discardResponseWriter{h: make(http.Header, 2)}
	for _, tc := range []struct {
		name string
		body string
		v    func() any
		want float64
	}{
		{"evaluate", `{"bench":"fft","policy":"comm4","qap":true,"scale":2.5,"loss_model":"worst"}`, func() any { return new(EvaluateRequest) }, 16},
		{"solve", `{"bench":"water_s","kind":"dist4","qap":true}`, func() any { return new(SolveRequest) }, 15},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			req, err := http.NewRequest("POST", "/", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if !s.decodePost(w, req, tc.v()) {
				t.Fatal("decodePost rejected a well-formed body")
			}
		})
		if allocs != tc.want {
			t.Errorf("%s: decodePost allocates %.0f times per call, want %.0f", tc.name, allocs, tc.want)
		}
	}
}

// TestWriteJSONAllocationBound pins WriteJSON's allocations for the
// BenchmarkWriteJSON bodies. encoding/json draws its encode state
// from a sync.Pool, so the pin is an upper bound.
func TestWriteJSONAllocationBound(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	w := &discardResponseWriter{h: make(http.Header, 2)}
	for _, tc := range []struct {
		name string
		v    any
		max  float64
	}{
		{"solve", &SolveResponse{Bench: "water_s", Kind: "dist4", QAP: true, TotalWatts: 0.0129}, 7},
		{"evaluate", &EvaluateResponse{Bench: "fft", Policy: "comm4", QAP: true, LossModel: "worst", Speedup: 2.64}, 7},
	} {
		allocs := testing.AllocsPerRun(100, func() { WriteJSON(w, 200, tc.v) })
		if allocs > tc.max {
			t.Errorf("%s: WriteJSON allocates %.0f times per call, want ≤ %.0f", tc.name, allocs, tc.max)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
// The race detector drops one sync.Pool Put in four at random, so a
// pooled path's allocation count is exact only without it.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
