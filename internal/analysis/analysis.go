// Package analysis is a small, pure-stdlib static-analysis engine for
// the mnoc repository: a loader that parses and type-checks module
// packages with go/parser + go/types (chaining to the compiler's
// source importer for the standard library, so no tool downloads are
// needed), an Analyzer/Pass API in the spirit of golang.org/x/tools/
// go/analysis, and a runner that applies the repository's
// `//mnoclint:allow <analyzer> <reason>` suppression directives.
//
// The domain analyzers themselves live in subpackages (ctxthread,
// determinism, goroleak, units, wrapcheck), wired into one suite by
// package registry for cmd/mnoclint. Each analyzer sees one package at
// a time. docs/LINT.md documents every rule and the directive grammar.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named lint rule. Run receives a fully type-checked
// package via the Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //mnoclint:allow directives. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description of what the analyzer
	// enforces and why (shown by `mnoclint -list`).
	Doc string

	// Run analyzes one package. Diagnostics go through pass.Reportf;
	// the returned error aborts the whole lint run and is reserved
	// for internal failures, not findings.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, addressed by resolved file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the vet-style `file:line:col: analyzer: message` form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// sortDiagnostics orders findings by file, line, column, analyzer,
// message so output is deterministic regardless of analyzer or package
// scheduling.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool { return diagnosticLess(ds[i], ds[j]) })
}

func diagnosticLess(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	if a.Analyzer != b.Analyzer {
		return a.Analyzer < b.Analyzer
	}
	return a.Message < b.Message
}

// --- shared type-level helpers used by several analyzers ---

// CalleeFunc resolves the called function or method of call, or nil
// when it cannot be determined (built-ins, conversions, calls through
// function-typed variables).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// IsPkgFunc reports whether call invokes a package-level function (or
// method) named name whose defining package matches pkg per
// PackageMatches.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkg, name string) bool {
	fn := CalleeFunc(info, call)
	return fn != nil && fn.Name() == name && PackageMatches(fn.Pkg(), pkg)
}

// PackageMatches reports whether p refers to the package known
// informally as want: an exact import-path match, a path ending in
// "/want", or a package named want. The loose forms let analyzers
// recognize both the real module packages (mnoc/internal/phys) and the
// lightweight stand-ins used in testdata fixtures (phys).
func PackageMatches(p *types.Package, want string) bool {
	if p == nil {
		return false
	}
	return p.Path() == want ||
		strings.HasSuffix(p.Path(), "/"+want) ||
		p.Name() == want
}

// MentionsPackage reports whether any identifier inside expr resolves
// to an object defined in (or naming) the package known as want.
func MentionsPackage(info *types.Info, expr ast.Expr, want string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		if obj := info.Uses[id]; obj != nil {
			if pn, ok := obj.(*types.PkgName); ok && PackageMatches(pn.Imported(), want) {
				found = true
			} else if PackageMatches(obj.Pkg(), want) {
				found = true
			}
		}
		return !found
	})
	return found
}

// IsErrorType reports whether t is the built-in error interface.
func IsErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// IsContextType reports whether t is context.Context (or an identical
// named interface from a fixture's context stand-in package).
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && PackageMatches(obj.Pkg(), "context")
}

// IsContextMethod reports whether fn is the method name on
// context.Context (matched through the receiver or interface).
func IsContextMethod(fn *types.Func, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return IsContextType(sig.Recv().Type())
}
