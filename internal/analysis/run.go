package analysis

import (
	"fmt"
	"sort"
)

// Suppressed is a finding an allow directive excused, kept for
// machine-readable output (mnoclint -json reports allow-status).
type Suppressed struct {
	Diagnostic
	// Reason is the directive's justification text.
	Reason string
}

// Result is the full outcome of one lint run.
type Result struct {
	// Diagnostics are the surviving findings, sorted by position.
	// Directive problems (malformed and stale allows) appear here
	// under the reserved "mnoclint" name.
	Diagnostics []Diagnostic
	// Suppressed are the findings allow directives excused, sorted.
	Suppressed []Suppressed
}

// Run applies every analyzer to every package, filters findings
// through the packages' //mnoclint:allow directives, and returns the
// surviving diagnostics sorted by position. Malformed and stale
// directives are returned as diagnostics themselves (analyzer
// "mnoclint") and cannot be suppressed.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	res, err := RunDetailed(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	return res.Diagnostics, nil
}

// RunDetailed is Run, additionally reporting the suppressed findings.
func RunDetailed(pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	// Directive index across every loaded file, plus malformed-
	// directive findings.
	var out []Diagnostic
	fileSup := map[string]suppressions{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			filename := pkg.Fset.Position(f.Package).Filename
			fileSup[filename] = parseDirectives(pkg.Fset, f, known, func(d Diagnostic) {
				out = append(out, d)
			})
		}
	}

	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report:   func(d Diagnostic) { raw = append(raw, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}

	res := &Result{}
	for _, d := range raw {
		if sup, ok := fileSup[d.Pos.Filename]; ok {
			if dir := sup.match(d.Analyzer, d.Pos.Line); dir != nil {
				dir.used = true
				res.Suppressed = append(res.Suppressed, Suppressed{Diagnostic: d, Reason: dir.reason})
				continue
			}
		}
		out = append(out, d)
	}

	// A directive that suppressed nothing is stale: the finding it
	// excused is gone, so the justification no longer holds. Reported
	// under the reserved name so it cannot itself be allowed.
	var stale []*allowDirective
	for _, sup := range fileSup {
		for _, dir := range sup.directives() {
			if !dir.used {
				stale = append(stale, dir)
			}
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		a, b := stale[i].pos, stale[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, dir := range stale {
		out = append(out, Diagnostic{
			Pos:      dir.pos,
			Analyzer: directiveAnalyzer,
			Message: fmt.Sprintf("allow directive for %q suppresses nothing: the finding it excused is gone, delete the directive",
				dir.analyzer),
		})
	}

	sortDiagnostics(out)
	res.Diagnostics = out
	sort.Slice(res.Suppressed, func(i, j int) bool {
		return diagnosticLess(res.Suppressed[i].Diagnostic, res.Suppressed[j].Diagnostic)
	})
	return res, nil
}
