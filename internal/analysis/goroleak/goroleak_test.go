package goroleak_test

import (
	"testing"

	"mnoc/internal/analysis/analysistest"
	"mnoc/internal/analysis/goroleak"
)

func TestGoroLeak(t *testing.T) {
	// work supplies the cross-package callees; other is a package
	// outside the analyzer's scope whose spawn must stay clean.
	analysistest.Run(t, goroleak.Analyzer, "server", "work", "other")
}
