package analysis_test

import (
	"go/types"
	"path/filepath"
	"testing"

	"mnoc/internal/analysis"
)

// loadGraphFixture loads the diamond fixture (top imports left and
// right, both import base) and builds the module over it.
func loadGraphFixture(t *testing.T) (*analysis.Module, []*analysis.Package) {
	t.Helper()
	loader := analysis.NewFixtureLoader(filepath.Join("testdata", "graph"))
	pkgs, err := loader.Load("base", "left", "right", "top")
	if err != nil {
		t.Fatalf("loading graph fixtures: %v", err)
	}
	return analysis.BuildModule(pkgs), pkgs
}

// lookupFunc resolves a package-level function of a fixture package.
func lookupFunc(t *testing.T, pkgs []*analysis.Package, pkgPath, name string) *types.Func {
	t.Helper()
	for _, pkg := range pkgs {
		if pkg.Path != pkgPath {
			continue
		}
		fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
		if !ok {
			t.Fatalf("%s.%s is not a function", pkgPath, name)
		}
		return fn
	}
	t.Fatalf("package %s not loaded", pkgPath)
	return nil
}

// TestFactsPropagateAcrossDiamond pins the interprocedural core: facts
// established in base flow to top through both diamond arms, through a
// method-value reference, and parameter facts flow through ArgFlow.
func TestFactsPropagateAcrossDiamond(t *testing.T) {
	mod, pkgs := loadGraphFixture(t)

	top := lookupFunc(t, pkgs, "top", "Top")
	facts := mod.FactsOf(top)
	if facts == nil {
		t.Fatal("no facts for top.Top")
	}
	if !facts.CancelAware {
		t.Error("top.Top should inherit CancelAware from base.Wait two packages down")
	}
	if len(facts.EscapesParam) != 2 || !facts.EscapesParam[1] {
		t.Errorf("top.Top EscapesParam = %v, want p (index 1) escaping via forward -> base.Keep", facts.EscapesParam)
	}
	if !facts.MutatesParam[1] {
		t.Errorf("top.Top MutatesParam = %v, want p (index 1) mutated via writer -> base.Write", facts.MutatesParam)
	}

	// The single-hop relays must also carry the parameter facts.
	forward := lookupFunc(t, pkgs, "top", "forward")
	if f := mod.FactsOf(forward); f == nil || len(f.EscapesParam) != 1 || !f.EscapesParam[0] {
		t.Errorf("top.forward EscapesParam = %+v, want [true]", f)
	}
	writer := lookupFunc(t, pkgs, "top", "writer")
	if f := mod.FactsOf(writer); f == nil || len(f.MutatesParam) != 1 || !f.MutatesParam[0] {
		t.Errorf("top.writer MutatesParam = %+v, want [true]", f)
	}

	// One hop across a package boundary.
	via := lookupFunc(t, pkgs, "left", "Via")
	if f := mod.FactsOf(via); f == nil || !f.CancelAware {
		t.Error("left.Via should inherit CancelAware from base.Wait")
	}
	// Handle itself carries CancelAware purely through the method-value
	// edge to R.M — there is no call in its body.
	handle := lookupFunc(t, pkgs, "right", "Handle")
	if f := mod.FactsOf(handle); f == nil || !f.CancelAware {
		t.Error("right.Handle should inherit CancelAware along the r.M method-value edge")
	}
	// A function that reaches nothing inherits nothing.
	lone := lookupFunc(t, pkgs, "left", "Lone")
	if f := mod.FactsOf(lone); f == nil || f.CancelAware {
		t.Errorf("left.Lone facts = %+v, want known and not cancel-aware", f)
	}
}
