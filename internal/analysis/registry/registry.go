// Package registry wires the five domain analyzers into the single
// suite cmd/mnoclint and the self-check test run. Adding an analyzer
// means adding it here, to docs/LINT.md, and a fixture directory under
// its package.
package registry

import (
	"mnoc/internal/analysis"
	"mnoc/internal/analysis/ctxthread"
	"mnoc/internal/analysis/determinism"
	"mnoc/internal/analysis/goroleak"
	"mnoc/internal/analysis/units"
	"mnoc/internal/analysis/wrapcheck"
)

// All returns the full mnoclint analyzer suite in stable (alphabetical)
// order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxthread.Analyzer,
		determinism.Analyzer,
		goroleak.Analyzer,
		units.Analyzer,
		wrapcheck.Analyzer,
	}
}
