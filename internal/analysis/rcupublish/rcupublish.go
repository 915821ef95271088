// Package rcupublish polices the repository's RCU idiom: config and
// plan snapshots are published by storing a pointer into an
// atomic.Pointer (adapt's active design, power's telemetry handles and
// pricing plans, waveguide's path table) and readers Load without
// locks. The idiom is only sound if a snapshot is
// immutable the moment it is published — a write to a published value
// races with every concurrent Load, and a write to a loaded value
// corrupts the snapshot every other reader holds.
//
// Two rules, per function, both alias-rooted at the stored/loaded
// variable:
//
//  1. a value passed to atomic.Pointer Store/Swap (or the new value of
//     CompareAndSwap) must not be mutated after the publishing call —
//     neither by a direct field/element write nor by passing it to a
//     callee whose propagated MutatesParam fact says it writes through
//     that parameter;
//  2. a value obtained from Load (or the previous value returned by
//     Swap) must not be mutated at all.
package rcupublish

import (
	"go/ast"
	"go/token"
	"go/types"

	"mnoc/internal/analysis"
)

// Analyzer is the RCU publication-immutability rule.
var Analyzer = &analysis.Analyzer{
	Name: "rcupublish",
	Doc: "values published through atomic.Pointer must not be mutated after Store, " +
		"and Load results are read-only snapshots (uses cross-package mutation facts)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// atomicPtrMethod returns the method name when call invokes a method of
// atomic.Pointer (Store, Swap, CompareAndSwap, Load), or "".
func atomicPtrMethod(info *types.Info, call *ast.CallExpr) string {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || !analysis.PackageMatches(fn.Pkg(), "atomic") {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Pointer" {
		return ""
	}
	return fn.Name()
}

// published is one value handed to readers: where it was published and
// by which method.
type published struct {
	obj types.Object
	pos token.Pos
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.Info

	// Pass 1: publication and load sites.
	var pubs []published
	loads := map[types.Object]token.Pos{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			var arg ast.Expr
			switch atomicPtrMethod(info, n) {
			case "Store", "Swap":
				if len(n.Args) == 1 {
					arg = n.Args[0]
				}
			case "CompareAndSwap":
				if len(n.Args) == 2 {
					arg = n.Args[1]
				}
			}
			if arg != nil {
				if obj := analysis.BaseIdentObj(info, arg); obj != nil {
					pubs = append(pubs, published{obj: obj, pos: n.End()})
				}
			}
		case *ast.AssignStmt:
			// x := ptr.Load() / old := ptr.Swap(next): both hand back a
			// pointer other goroutines share.
			if len(n.Rhs) != 1 || len(n.Lhs) == 0 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			switch atomicPtrMethod(info, call) {
			case "Load", "Swap":
				id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident)
				if !ok {
					return true
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil {
					loads[obj] = n.End()
				}
			}
		}
		return true
	})
	if len(pubs) == 0 && len(loads) == 0 {
		return
	}

	// violation resolves whether writing through obj at pos breaks a
	// rule, returning a description of the publication, or "".
	violation := func(obj types.Object, pos token.Pos) string {
		if at, ok := loads[obj]; ok && pos > at {
			return "was loaded from an atomic.Pointer"
		}
		for _, p := range pubs {
			if p.obj == obj && pos > p.pos {
				return "was published through an atomic.Pointer"
			}
		}
		return ""
	}

	// Pass 2: mutations after the fact.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if _, plain := ast.Unparen(lhs).(*ast.Ident); plain {
					continue // rebinding a local, not writing through it
				}
				obj := analysis.BaseIdentObj(info, lhs)
				if obj == nil {
					continue
				}
				if how := violation(obj, lhs.Pos()); how != "" {
					pass.Reportf(lhs.Pos(),
						"%s %s and is mutated here: readers share the snapshot, so the write races with every Load", obj.Name(), how)
				}
			}
		case *ast.IncDecStmt:
			if _, plain := ast.Unparen(n.X).(*ast.Ident); plain {
				return true
			}
			obj := analysis.BaseIdentObj(info, n.X)
			if obj == nil {
				return true
			}
			if how := violation(obj, n.Pos()); how != "" {
				pass.Reportf(n.Pos(),
					"%s %s and is mutated here: readers share the snapshot, so the write races with every Load", obj.Name(), how)
			}
		case *ast.CallExpr:
			if atomicPtrMethod(info, n) != "" {
				return true
			}
			callee := analysis.CalleeFunc(info, n)
			facts := pass.Module.FactsOf(callee)
			if facts == nil {
				return true
			}
			sig, _ := callee.Type().(*types.Signature)
			if sig == nil {
				return true
			}
			offset := 0
			if sig.Recv() != nil {
				offset = 1
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if obj := analysis.BaseIdentObj(info, sel.X); obj != nil {
						if how := violation(obj, n.Pos()); how != "" && len(facts.MutatesParam) > 0 && facts.MutatesParam[0] {
							pass.Reportf(n.Pos(),
								"%s %s and %s mutates its receiver: readers share the snapshot, so the write races with every Load",
								obj.Name(), how, callee.Name())
						}
					}
				}
			}
			for i, arg := range n.Args {
				obj := analysis.BaseIdentObj(info, arg)
				if obj == nil {
					continue
				}
				how := violation(obj, n.Pos())
				if how == "" {
					continue
				}
				pi := i
				if sig.Variadic() && pi >= sig.Params().Len()-1 {
					pi = sig.Params().Len() - 1
				}
				fi := offset + pi
				if fi < len(facts.MutatesParam) && facts.MutatesParam[fi] {
					pass.Reportf(arg.Pos(),
						"%s %s and %s mutates its argument: readers share the snapshot, so the write races with every Load",
						obj.Name(), how, callee.Name())
				}
			}
		}
		return true
	})
}
