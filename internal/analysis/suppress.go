package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// DirectivePrefix introduces an mnoclint directive. One verb exists:
//
//	//mnoclint:allow <analyzer> <reason...>
//
// An allow directive suppresses findings of one analyzer on its own
// line and the line directly below it. The analyzer name must be one
// of the analyzers in the run, the reason is mandatory (an unexplained
// suppression is itself a diagnostic), and an allow that suppresses
// nothing is reported as stale — suppressions never outlive the
// finding they excused.
const DirectivePrefix = "//mnoclint:"

// directiveAnalyzer is the pseudo-analyzer name directive diagnostics
// are reported under. It is reserved: directives cannot suppress it.
const directiveAnalyzer = "mnoclint"

// allowDirective is one parsed //mnoclint:allow comment. Run marks it
// used when it suppresses a finding; a directive still unused at the
// end of a full-suite run is reported as stale.
type allowDirective struct {
	pos      token.Position
	line     int
	analyzer string
	reason   string
	used     bool
}

// suppressions indexes the well-formed allow directives of one file:
// line number -> analyzer name -> directive.
type suppressions map[int]map[string]*allowDirective

// parseDirectives scans a file's comments for mnoclint directives.
// Well-formed allow directives are returned as suppressions; malformed
// ones (unknown verb, missing analyzer, missing reason, analyzer not
// in the run) are reported as diagnostics under the reserved
// "mnoclint" analyzer name.
func parseDirectives(fset *token.FileSet, f *ast.File, known map[string]bool, report func(Diagnostic)) suppressions {
	sup := suppressions{}
	bad := func(pos token.Pos, format string, args ...any) {
		report(Diagnostic{
			Pos:      fset.Position(pos),
			Analyzer: directiveAnalyzer,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, DirectivePrefix)
			if !ok {
				continue
			}
			verb, args, _ := strings.Cut(rest, " ")
			if verb != "allow" {
				bad(c.Pos(), "unknown directive %q: only %sallow is recognized", DirectivePrefix+verb, DirectivePrefix)
				continue
			}
			name, reason, _ := strings.Cut(strings.TrimSpace(args), " ")
			reason = strings.TrimSpace(reason)
			if name == "" {
				bad(c.Pos(), "malformed allow directive: missing analyzer name (want %sallow <analyzer> <reason>)", DirectivePrefix)
				continue
			}
			if !known[name] {
				bad(c.Pos(), "allow directive names unknown analyzer %q", name)
				continue
			}
			if reason == "" {
				bad(c.Pos(), "allow directive for %q has no reason: every suppression must say why", name)
				continue
			}
			line := fset.Position(c.Pos()).Line
			if sup[line] == nil {
				sup[line] = map[string]*allowDirective{}
			}
			sup[line][name] = &allowDirective{
				pos:      fset.Position(c.Pos()),
				line:     line,
				analyzer: name,
				reason:   reason,
			}
		}
	}
	return sup
}

// match returns the directive covering a diagnostic from analyzer at
// line — one on the same line or the line directly above — or nil.
func (s suppressions) match(analyzer string, line int) *allowDirective {
	if d := s[line][analyzer]; d != nil {
		return d
	}
	return s[line-1][analyzer]
}

// allows reports whether a diagnostic from analyzer at line is covered
// by a directive on the same line or the line directly above it.
func (s suppressions) allows(analyzer string, line int) bool {
	return s.match(analyzer, line) != nil
}

// directives returns every allow directive of the file in position
// order (for stale-allow reporting).
func (s suppressions) directives() []*allowDirective {
	var out []*allowDirective
	for _, byName := range s {
		for _, d := range byName {
			out = append(out, d)
		}
	}
	return out
}
