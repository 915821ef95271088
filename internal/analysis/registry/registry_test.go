package registry_test

import (
	"testing"

	"mnoc/internal/analysis/registry"
)

// TestSuiteComplete pins the analyzer roster (what `mnoclint -list`
// prints): all five analyzers, stable alphabetical order, documented.
func TestSuiteComplete(t *testing.T) {
	want := []string{
		"ctxthread", "determinism", "goroleak", "units", "wrapcheck",
	}
	all := registry.All()
	if len(all) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run", a.Name)
		}
	}
}
