package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// wireBytes returns what WriteJSON sends for v: the body without the
// trailing newline Encoder.Encode appends, or "" when nothing was
// written (encoding/json refuses NaN and Inf before writing any body).
func wireBytes(t *testing.T, v any) string {
	t.Helper()
	rec := httptest.NewRecorder()
	WriteJSON(rec, 200, v)
	body := rec.Body.String()
	if body == "" {
		return ""
	}
	if !strings.HasSuffix(body, "\n") {
		t.Fatalf("body %q lacks the encoder's trailing newline", body)
	}
	return strings.TrimSuffix(body, "\n")
}

type wireCase struct {
	name string
	v    any
	want string
}

func checkWire(t *testing.T, cases []wireCase) {
	t.Helper()
	for _, tc := range cases {
		if got := wireBytes(t, tc.v); got != tc.want {
			t.Errorf("%s: wire bytes drifted:\n got: %q\nwant: %q", tc.name, got, tc.want)
		}
	}
}

// TestResponseWireFormat pins the served bytes of the /v1/solve,
// /v1/evaluate and /v1/adapt/evaluate bodies: WriteJSON's output is
// compared with literal strings, not with another encoder, so a field
// shuffle (including the BreakdownDTO embed position), a renamed key,
// the loss_model omitempty branch or an encoder change fails here.
func TestResponseWireFormat(t *testing.T) {
	checkWire(t, []wireCase{
		{"solve", &SolveResponse{
			Bench: "fft", Kind: "dist4", QAP: true,
			BreakdownDTO: BreakdownDTO{SourceUW: 123456.789, OEUW: 0.25, ElecUW: 3},
			TotalWatts:   1.23456789, BaseWatts: 5, Normalized: 0.2469,
		}, `{
  "bench": "fft",
  "kind": "dist4",
  "qap": true,
  "source_uw": 123456.789,
  "oe_uw": 0.25,
  "electrical_uw": 3,
  "total_watts": 1.23456789,
  "base_watts": 5,
  "normalized": 0.2469
}`},
		{"evaluate", &EvaluateResponse{
			Bench: "water_s", Policy: "comm4", QAP: true, Scale: 2.5,
			TotalWatts: 4.25, BaseWatts: 17, MNoCCycles: 123456, RNoCCycles: 789012,
			Speedup: 6.391,
		}, `{
  "bench": "water_s",
  "policy": "comm4",
  "qap": true,
  "scale": 2.5,
  "total_watts": 4.25,
  "base_watts": 17,
  "mnoc_cycles": 123456,
  "rnoc_cycles": 789012,
  "speedup": 6.391
}`},
		{"evaluate-worst", &EvaluateResponse{
			Bench: "fft", Policy: "base", Scale: 1, LossModel: "worst",
			TotalWatts: 4, BaseWatts: 5, MNoCCycles: 6, RNoCCycles: 7, Speedup: 8,
		}, `{
  "bench": "fft",
  "policy": "base",
  "qap": false,
  "scale": 1,
  "loss_model": "worst",
  "total_watts": 4,
  "base_watts": 5,
  "mnoc_cycles": 6,
  "rnoc_cycles": 7,
  "speedup": 8
}`},
		{"adapt-evaluate", &AdaptEvaluateResponse{
			Bench: "fft", Generation: 9, TotalWatts: 4,
			BreakdownDTO: BreakdownDTO{SourceUW: 1, OEUW: 2, ElecUW: 3},
		}, `{
  "bench": "fft",
  "generation": 9,
  "total_watts": 4,
  "source_uw": 1,
  "oe_uw": 2,
  "electrical_uw": 3
}`},
	})
}

// TestWireFormatEdgeValues pins the number forms encoding/json
// special-cases on the wire: 'f' vs 'e' and the e-09 → e-9 exponent
// trim, MaxFloat64, a subnormal, a real -0, an all-zero response, a
// default scale with loss_model omitted, and MaxUint64 cycle counts.
func TestWireFormatEdgeValues(t *testing.T) {
	checkWire(t, []wireCase{
		{"solve-zero", &SolveResponse{}, `{
  "bench": "",
  "kind": "",
  "qap": false,
  "source_uw": 0,
  "oe_uw": 0,
  "electrical_uw": 0,
  "total_watts": 0,
  "base_watts": 0,
  "normalized": 0
}`},
		{"solve-extreme-floats", &SolveResponse{
			Bench: "radix", Kind: "base",
			BreakdownDTO: BreakdownDTO{SourceUW: 1e21, OEUW: 9.999e-7, ElecUW: -1e-9},
			TotalWatts:   math.MaxFloat64, BaseWatts: math.SmallestNonzeroFloat64,
			Normalized: math.Copysign(0, -1),
		}, `{
  "bench": "radix",
  "kind": "base",
  "qap": false,
  "source_uw": 1e+21,
  "oe_uw": 9.999e-7,
  "electrical_uw": -1e-9,
  "total_watts": 1.7976931348623157e+308,
  "base_watts": 5e-324,
  "normalized": -0
}`},
		{"evaluate-default-scale", &EvaluateResponse{
			Bench: "fft", Policy: "base", Scale: 1,
			TotalWatts: 4, BaseWatts: 5, MNoCCycles: 6, RNoCCycles: 7, Speedup: 8,
		}, `{
  "bench": "fft",
  "policy": "base",
  "qap": false,
  "scale": 1,
  "total_watts": 4,
  "base_watts": 5,
  "mnoc_cycles": 6,
  "rnoc_cycles": 7,
  "speedup": 8
}`},
		{"evaluate-max-cycles", &EvaluateResponse{
			Bench: "lu_c", Policy: "dist4", Scale: 1e20,
			MNoCCycles: math.MaxUint64, RNoCCycles: math.MaxUint64 - 1, Speedup: 1.0000001,
		}, `{
  "bench": "lu_c",
  "policy": "dist4",
  "qap": false,
  "scale": 100000000000000000000,
  "total_watts": 0,
  "base_watts": 0,
  "mnoc_cycles": 18446744073709551615,
  "rnoc_cycles": 18446744073709551614,
  "speedup": 1.0000001
}`},
	})
}

// TestWireFormatStringEscaping pins how strings go out on the wire:
// HTML characters and control characters as \u escapes, U+2028/29
// escaped, DEL and other valid UTF-8 passed through, and each invalid
// UTF-8 byte replaced by \ufffd — on their own and embedded in a
// response.
func TestWireFormatStringEscaping(t *testing.T) {
	checkWire(t, []wireCase{
		{"empty", "", `""`},
		{"plain", "plain", `"plain"`},
		{"quote-backslash", `quote"back\slash`, `"quote\"back\\slash"`},
		{"html", "<script>&amp;</script>", `"\u003cscript\u003e\u0026amp;\u003c/script\u003e"`},
		{"control", "tab\tnl\nret\rnull\x00bell\x07", `"tab\tnl\nret\rnull\u0000bell\u0007"`},
		{"unit-sep-space-del", "\x1f\x20\x7f", "\"\\u001f \x7f\""},
		{"line-para-separators", "\u2028line\u2029para", `"\u2028line\u2029para"`},
		{"latin", "héllo wörld", `"héllo wörld"`},
		{"astral", "🜚🜛", `"🜚🜛"`},
		{"invalid-byte", "bad\xff", `"bad\ufffd"`},
		{"invalid-pair", "\xc3\x28", `"\ufffd("`},
		{"truncated", "trailing\xc3", `"trailing\ufffd"`},
		{"repeated-amp", strings.Repeat("a&b", 100), `"` + strings.Repeat(`a\u0026b`, 100) + `"`},
		{"in-solve", &SolveResponse{
			Bench: `sp<la&sh>"2" bad` + "\xffutf8\xc3(", Kind: "a\tb\nc\x01d\u2028e\u2029f héllo🜚",
		}, `{
  "bench": "sp\u003cla\u0026sh\u003e\"2\" bad\ufffdutf8\ufffd(",
  "kind": "a\tb\nc\u0001d\u2028e\u2029f héllo🜚",
  "qap": false,
  "source_uw": 0,
  "oe_uw": 0,
  "electrical_uw": 0,
  "total_watts": 0,
  "base_watts": 0,
  "normalized": 0
}`},
	})
}

// TestWireFormatRejectsBadFloats pins the NaN/Inf contract: a response
// carrying NaN or ±Inf in any float field goes out with its status and
// content type but no body, because encoding/json refuses the value
// before writing anything.
func TestWireFormatRejectsBadFloats(t *testing.T) {
	for name, f := range map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1)} {
		for field, v := range map[string]any{
			"solve.source_uw":        &SolveResponse{Bench: "fft", BreakdownDTO: BreakdownDTO{SourceUW: f}},
			"solve.total_watts":      &SolveResponse{Bench: "fft", TotalWatts: f},
			"solve.normalized":       &SolveResponse{Bench: "fft", Normalized: f},
			"evaluate.scale":         &EvaluateResponse{Bench: "fft", Scale: f},
			"evaluate.speedup":       &EvaluateResponse{Bench: "fft", Speedup: f},
			"adapt-evaluate.oe_uw":   &AdaptEvaluateResponse{Bench: "fft", BreakdownDTO: BreakdownDTO{OEUW: f}},
			"adapt-evaluate.total_w": &AdaptEvaluateResponse{Bench: "fft", TotalWatts: f},
		} {
			rec := httptest.NewRecorder()
			WriteJSON(rec, 200, v)
			if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" {
				t.Errorf("%s=%s: status %d, content type %q", field, name, rec.Code, rec.Header().Get("Content-Type"))
			}
			if rec.Body.Len() != 0 {
				t.Errorf("%s=%s: wrote body %q, want none", field, name, rec.Body.String())
			}
		}
	}
}

// TestWriteJSONFastPath drives WriteJSON's single path for a solve
// response, an error status and a generic map, checking the status
// line and content type each response goes out with.
func TestWriteJSONFastPath(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		v      any
	}{
		{"solve", 200, &SolveResponse{Bench: "fft", Kind: "comm4", TotalWatts: 1.5, BaseWatts: 3, Normalized: 0.5}},
		{"error", 400, map[string]string{"error": "bad request"}},
		{"generic", 200, map[string]string{"status": "ok"}},
	} {
		rec := httptest.NewRecorder()
		WriteJSON(rec, tc.status, tc.v)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.status)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q", tc.name, ct)
		}
	}
}

// FuzzDecodePost sends arbitrary bodies through decodePost for both
// hot request types (wired into `make fuzz`). Every body must either
// be accepted with nothing written, or be refused with a 400 carrying
// the {"error": ...} envelope; nothing may panic.
func FuzzDecodePost(f *testing.F) {
	for _, seed := range []string{
		`{"bench":"fft","kind":"dist4","qap":true}`,
		`{"bench":"fft","policy":"comm4","qap":true,"scale":2.5,"loss_model":"worst"}`,
		`{"bench":"fft","typo_field":1}`,
		`{"bench":"fft","scale":"two"}`,
		`{"bench":`,
		`[1,2,3]`,
		`null`,
		``,
		"{\"bench\":\"bad\xffutf8\"}",
		`{"timeout_ms":1e400}`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(testConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for path, dst := range map[string]func() any{
			"/v1/solve":    func() any { return new(SolveRequest) },
			"/v1/evaluate": func() any { return new(EvaluateRequest) },
		} {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			if s.decodePost(rec, req, dst()) {
				if rec.Body.Len() != 0 {
					t.Fatalf("%s: accepted body %q but wrote %q", path, body, rec.Body.String())
				}
				continue
			}
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: refused body %q with status %d, want 400", path, body, rec.Code)
			}
			var envelope map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
				t.Fatalf("%s: error body %q is not JSON: %v", path, rec.Body.String(), err)
			}
			if len(envelope) != 1 || envelope["error"] == "" {
				t.Fatalf("%s: error body %q is not the {\"error\": ...} envelope", path, rec.Body.String())
			}
		}
	})
}
