package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzRead hammers the binary trace decoder with mutated inputs: it
// must never panic, and anything it accepts must be a valid trace that
// survives a write/read round trip.
func FuzzRead(f *testing.F) {
	// Seed with a valid trace and a few corruptions.
	valid := &Trace{N: 8, Cycles: 100, Packets: []Packet{
		{Cycle: 1, Src: 0, Dst: 1, Flits: 1},
		{Cycle: 50, Src: 7, Dst: 3, Flits: 4},
	}}
	var buf bytes.Buffer
	if err := valid.Write(&buf); err != nil {
		f.Fatal(err)
	}
	blob := buf.Bytes()
	f.Add(blob)
	f.Add(blob[:len(blob)-3])
	f.Add([]byte(traceMagic))
	f.Add([]byte("garbage"))
	mutated := append([]byte(nil), blob...)
	mutated[10] ^= 0xFF
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Read accepted an invalid trace: %v", err)
		}
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatalf("re-encoding failed: %v", err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.N != tr.N || back.Cycles != tr.Cycles || len(back.Packets) != len(tr.Packets) {
			t.Fatal("round trip changed the trace")
		}
	})
}

// FuzzReadCSV feeds the CSV matrix reader behind `mnoc power -matrix`
// arbitrary text: it must never panic, and a matrix it accepts must be
// square, finite and non-negative with a zero diagonal.
func FuzzReadCSV(f *testing.F) {
	f.Add("0,2,3\n4,0,5\n6,7,0\n")
	f.Add("0,1e308\n1e-300,0\n")
	f.Add("0,NaN\n1,0\n")
	f.Add("0,+Inf\n1,0\n")
	f.Add("0,-1\n1,0\n")
	f.Add("0,0x1p3\n1_0,0\n")
	f.Add("\"0\",1\n1,0\n")
	f.Add("0,1\n1\n")

	f.Fuzz(func(t *testing.T, data string) {
		m, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		if m.N < 2 || len(m.Counts) != m.N {
			t.Fatalf("accepted a %d-row matrix with N = %d", len(m.Counts), m.N)
		}
		for i, row := range m.Counts {
			if len(row) != m.N {
				t.Fatalf("row %d has %d cells, want %d", i, len(row), m.N)
			}
			for j, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || (i == j && v != 0) {
					t.Fatalf("accepted cell (%d,%d) = %v", i, j, v)
				}
			}
		}
	})
}
