package analysis_test

import (
	"go/ast"
	"path/filepath"
	"strings"
	"testing"

	"mnoc/internal/analysis"
)

// flagret reports every return statement; trivially predictable, so
// the engine test can pin exact positions across files and packages.
var flagret = &analysis.Analyzer{
	Name: "flagret",
	Doc:  "flags every return statement (engine test only)",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if ret, ok := n.(*ast.ReturnStmt); ok {
					pass.Reportf(ret.Pos(), "return statement")
				}
				return true
			})
		}
		return nil
	},
}

func TestRunAcrossPackages(t *testing.T) {
	loader := analysis.NewFixtureLoader(filepath.Join("testdata", "src"))
	pkgs, err := loader.Load("...")
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2 (alpha, beta)", len(pkgs))
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{flagret})
	if err != nil {
		t.Fatalf("running: %v", err)
	}

	want := []struct {
		file     string
		line     int
		analyzer string
		msg      string
	}{
		{"a.go", 5, "flagret", "return statement"},
		{"b.go", 5, "flagret", "return statement"},
		{"beta.go", 12, "flagret", "return statement"}, // D's return; C's is suppressed
		{"beta.go", 15, "mnoclint", "unknown directive"},
		{"beta.go", 16, "mnoclint", "missing analyzer name"},
		{"beta.go", 17, "mnoclint", "unknown analyzer"},
		{"beta.go", 18, "mnoclint", "has no reason"},
		{"beta.go", 22, "mnoclint", "suppresses nothing"}, // the well-formed allow above E
		{"beta.go", 27, "mnoclint", "unknown directive \"//mnoclint:hot\""},
	}
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(want))
	}
	for i, w := range want {
		d := diags[i]
		if filepath.Base(d.Pos.Filename) != w.file || d.Pos.Line != w.line ||
			d.Analyzer != w.analyzer || !strings.Contains(d.Message, w.msg) {
			t.Errorf("diag %d = %s, want %s:%d %s %q", i, d, w.file, w.line, w.analyzer, w.msg)
		}
	}
}

// TestOrphanHotDirective pins what became of the retired hot-root
// marker: a //mnoclint:hot comment is reported once, as an unknown
// directive, whatever it is attached to.
func TestOrphanHotDirective(t *testing.T) {
	loader := analysis.NewFixtureLoader(filepath.Join("testdata", "src"))
	pkgs, err := loader.Load("...")
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := analysis.Run(pkgs, nil)
	if err != nil {
		t.Fatalf("running: %v", err)
	}
	var hot []analysis.Diagnostic
	for _, d := range diags {
		if strings.Contains(d.Message, "//mnoclint:hot") {
			hot = append(hot, d)
		}
	}
	if len(hot) != 1 {
		t.Fatalf("hot-directive diagnostics = %v, want exactly one", hot)
	}
	d := hot[0]
	if d.Analyzer != "mnoclint" || !strings.Contains(d.Message, "unknown directive") {
		t.Errorf("diagnostic = %s, want an unknown-directive report", d)
	}
	if filepath.Base(d.Pos.Filename) != "beta.go" || d.Pos.Line != 27 {
		t.Errorf("diagnostic at %s:%d, want beta.go:27", filepath.Base(d.Pos.Filename), d.Pos.Line)
	}
}

// TestDiagnosticString pins the vet-style rendering cmd/mnoclint prints.
func TestDiagnosticString(t *testing.T) {
	loader := analysis.NewFixtureLoader(filepath.Join("testdata", "src"))
	pkgs, err := loader.Load("alpha")
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{flagret})
	if err != nil {
		t.Fatalf("running: %v", err)
	}
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	got := diags[0].String()
	wantSuffix := "a.go:5:2: flagret: return statement"
	if !strings.HasSuffix(got, wantSuffix) {
		t.Errorf("String() = %q, want suffix %q", got, wantSuffix)
	}
}
