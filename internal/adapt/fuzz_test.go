package adapt

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// FuzzParseTrace hammers the mnoc-adapt-trace v1 reader behind `mnoc
// replay -trace` and `mnoc serve -adapt-trace`: any input is accepted or
// refused with an error, never a panic, and an accepted trace survives
// WriteTrace → ParseTrace unchanged.
func FuzzParseTrace(f *testing.F) {
	full, err := os.ReadFile("../../testdata/adapt/phase_shift.trace")
	if err != nil {
		f.Fatal(err)
	}
	// The recorded trace's header and first packets, closed: the whole
	// 80 KB file makes every mutation (and its minimisation) slow.
	lines := bytes.SplitAfter(full, []byte("\n"))
	blob := append(bytes.Join(lines[:40], nil), "end\n"...)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte(traceMagic + "\nn 4\ncycles 10\npacket 1 0 1 1\nend\n"))
	f.Add([]byte(traceMagic + "\nn 4\ncycles 10\npacket 1 2 2 1\nend\n"))
	f.Add([]byte(traceMagic + "\nn 99999999\ncycles 10\nend\n"))
	mutated := append([]byte(nil), blob...)
	mutated[len(mutated)/2] ^= 0x5A
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, tr); err != nil {
			t.Fatalf("WriteTrace refused an accepted trace: %v", err)
		}
		again, err := ParseTrace(&out)
		if err != nil {
			t.Fatalf("re-parsing the written trace: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("trace changed across WriteTrace → ParseTrace:\nfirst  %+v\nsecond %+v", tr, again)
		}
	})
}
