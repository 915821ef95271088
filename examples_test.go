// Integration tests that build and run every example end-to-end via the
// Go toolchain, keeping them from rotting. They are skipped under
// -short. The mnoc subcommands are exercised in process by
// cmd/mnoc/main_test.go.
package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func runGo(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s failed: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples are slow; skipped with -short")
	}
	cases := []struct {
		dir  string
		want []string // substrings the output must contain
	}{
		{"examples/quickstart", []string{"reduction", "W"}},
		{"examples/appspecific", []string{"pipeline links in the low power mode: 5/5", "saved"}},
		{"examples/commaware", []string{"benchmark", "4M_T_G"}},
		{"examples/threadmapping", []string{"robust taboo", "heatmap"}},
		{"examples/dynamicphases", []string{"migrated", "saved"}},
		{"examples/crossbarstudy", []string{"kernel", "MWSR", "SWMR+PT"}},
	}
	for _, c := range cases {
		c := c
		t.Run(filepath.Base(c.dir), func(t *testing.T) {
			t.Parallel()
			out := runGo(t, "run", "./"+c.dir)
			for _, want := range c.want {
				if !strings.Contains(out, want) {
					t.Errorf("output of %s missing %q:\n%s", c.dir, want, out)
				}
			}
		})
	}
}

func TestQuickstartSavesRoughlyHalf(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped with -short")
	}
	out := runGo(t, "run", "./examples/quickstart")
	// The headline claim: the comm-aware 4-mode design plus mapping
	// roughly halves interconnect power (the paper's 51%).
	if !strings.Contains(out, "reduction") {
		t.Fatalf("no reduction line:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "reduction") {
			fields := strings.Fields(line)
			if len(fields) < 2 {
				t.Fatalf("malformed reduction line: %q", line)
			}
		}
	}
}
