package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	m := NewMatrix(4)
	m.Counts[0][1] = 1.5
	m.Counts[2][3] = 42
	m.Counts[3][0] = 0.001
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counts, m.Counts) {
		t.Fatalf("round trip mismatch:\n%v\n%v", got.Counts, m.Counts)
	}
}

func TestReadCSVRejections(t *testing.T) {
	cases := map[string]string{
		"one row":       "0,1\n",
		"ragged":        "0,1\n1\n",
		"non-square":    "0,1,2\n1,0,2\n",
		"negative":      "0,-1\n1,0\n",
		"NaN":           "0,NaN\n1,0\n",
		"Inf":           "0,1\n+Inf,0\n",
		"-Inf":          "0,-Inf\n1,0\n",
		"NaN diagonal":  "NaN,1\n1,0\n",
		"diagonal":      "1,1\n1,0\n",
		"non-numeric":   "0,x\n1,0\n",
		"empty":         "",
		"single column": "0\n0\n",
	}
	for name, data := range cases {
		if _, err := ReadCSV(strings.NewReader(data)); err == nil {
			t.Errorf("%s: accepted %q", name, data)
		}
	}
}

func TestReadCSVAccepts(t *testing.T) {
	m, err := ReadCSV(strings.NewReader("0,2,3\n4,0,5\n6,7,0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 3 || m.Counts[1][2] != 5 || m.Total() != 27 {
		t.Fatalf("parsed wrong: %+v", m.Counts)
	}
}
