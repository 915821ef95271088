package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"unicode"

	"mnoc/internal/exp"
)

// goldenTables splits the quick-scale golden (`mnoc bench -scale quick`
// output) into one expected rendering per paper table, keyed by table
// ID. The run header line (scale, seed, worker count) and the blank
// line after it are excluded: the header names the worker count, which
// the benchmark pins differently from the CLI default.
func goldenTables(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading golden tables: %w", err)
	}
	_, body, ok := strings.Cut(string(raw), "\n\n")
	if !ok {
		return nil, fmt.Errorf("golden %s: no blank line after the header", path)
	}
	reg := exp.Registry()
	out := make(map[string]string, len(reg))
	for i, e := range reg {
		start := "== " + e.ID + ": "
		if !strings.HasPrefix(body, start) {
			return nil, fmt.Errorf("golden %s: table %s not where expected", path, e.ID)
		}
		end := len(body)
		if i+1 < len(reg) {
			next := strings.Index(body, "\n== "+reg[i+1].ID+": ")
			if next < 0 {
				return nil, fmt.Errorf("golden %s: table %s missing", path, reg[i+1].ID)
			}
			end = next + 1
		}
		out[e.ID] = body[:end]
		body = body[end:]
	}
	return out, nil
}

// checkTable reports why an experiment table is wrong, or nil. Every
// table must be free of NaN/Inf cells; when want holds a golden
// rendering for the table, its text must match byte for byte.
func checkTable(t *exp.Table, want map[string]string) error {
	if t == nil {
		return fmt.Errorf("no table")
	}
	for _, row := range t.Rows {
		for _, cell := range row {
			if nonFinite(cell) {
				return fmt.Errorf("table %s: non-finite cell %q", t.ID, cell)
			}
		}
	}
	golden, ok := want[t.ID]
	if !ok {
		return nil
	}
	var got bytes.Buffer
	if err := t.Fprint(&got); err != nil {
		return fmt.Errorf("table %s: rendering: %w", t.ID, err)
	}
	if got.String() != golden {
		return fmt.Errorf("table %s differs from the golden rendering", t.ID)
	}
	return nil
}

// nonFinite reports whether a formatted cell carries a NaN or an
// infinity, in any of the spellings Go's formatting produces ("NaN",
// "+Inf", "-Inf", also inside "NaN%" or "+Infx").
func nonFinite(cell string) bool {
	for _, tok := range strings.FieldsFunc(cell, func(r rune) bool { return !unicode.IsLetter(r) }) {
		switch strings.ToLower(tok) {
		case "nan", "inf", "infinity":
			return true
		}
	}
	return false
}

// checkResponse decodes a 200 response body into a value of want's type
// (unknown fields rejected) and requires it to equal want field for
// field. want is the reference the benchmark computed by calling
// exp.Context directly.
func checkResponse[T comparable](status int, body []byte, want T) error {
	if status != 200 {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var got T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if got != want {
		return fmt.Errorf("response %+v, reference %+v", got, want)
	}
	return nil
}
