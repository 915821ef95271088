package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"mnoc/internal/exp"
	"mnoc/internal/server"
)

const testGolden = "../testdata/golden/bench_quick.txt"

func TestGoldenTablesCoverTheGolden(t *testing.T) {
	want, err := goldenTables(testGolden)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(testGolden)
	if err != nil {
		t.Fatal(err)
	}
	var joined strings.Builder
	for _, e := range exp.Registry() {
		joined.WriteString(want[e.ID])
	}
	header, _, _ := strings.Cut(string(raw), "\n")
	if got := header + "\n\n" + joined.String(); got != string(raw) {
		t.Fatal("header plus the per-table sections do not reassemble the golden")
	}
}

func TestCheckTableRejectsPerturbedTable(t *testing.T) {
	want, err := goldenTables(testGolden)
	if err != nil {
		t.Fatal(err)
	}
	c, err := exp.NewContext(exp.Quick())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := exp.Fig3(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTable(tab, want); err != nil {
		t.Fatalf("unperturbed fig3: %v", err)
	}
	orig := tab.Rows[0][1]
	tab.Rows[0][1] += "1"
	if checkTable(tab, want) == nil {
		t.Error("a perturbed cell passed the golden comparison")
	}
	for _, bad := range []string{"NaN", "+Inf", "-Inf", "NaN%", "1.2e+3 Inf"} {
		tab.Rows[0][1] = bad
		if checkTable(tab, nil) == nil {
			t.Errorf("cell %q passed the finite check", bad)
		}
	}
	tab.Rows[0][1] = orig
	if err := checkTable(tab, nil); err != nil {
		t.Errorf("restored table: %v", err)
	}
}

func TestCheckResponseRejectsPerturbedField(t *testing.T) {
	want := server.SolveResponse{
		Bench: "fft", Kind: "dist2",
		BreakdownDTO: server.BreakdownDTO{SourceUW: 1.5, OEUW: 2.25, ElecUW: 3},
		TotalWatts:   6.75e-6, BaseWatts: 1e-5, Normalized: 0.675,
	}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResponse(200, body, want); err != nil {
		t.Fatalf("identical response: %v", err)
	}
	perturbed := want
	perturbed.OEUW = 2.2500000000000004 // one ulp away
	pbody, err := json.Marshal(perturbed)
	if err != nil {
		t.Fatal(err)
	}
	if checkResponse(200, pbody, want) == nil {
		t.Error("a one-ulp change in oe_uw passed")
	}
	extra := strings.Replace(string(body), "{", `{"extra":1,`, 1)
	if checkResponse(200, []byte(extra), want) == nil {
		t.Error("an unknown field passed")
	}
	if checkResponse(500, body, want) == nil {
		t.Error("a non-200 status passed")
	}

	it := &item{bench: "fft", kind: "dist2", check: func(s int, b []byte) error { return checkResponse(s, b, want) }}
	if err := it.verify(200, body); err != nil {
		t.Fatal(err)
	}
	if it.verify(200, pbody) == nil {
		t.Error("verify accepted a perturbed body after caching a good one")
	}
}
