// Package goroleak enforces that goroutines started in the long-lived
// service packages (server, fleet, adapt, and flight, the coalescing
// group they and exp.Context share) and in fanout, the worker pool
// under every sweep, have a cancellation path.
// Those processes run for the life of a deployment; a goroutine that
// never observes shutdown accumulates across config reloads and drains
// until the process is OOM-killed mid-sweep.
//
// A spawn is accepted when the analyzer can see a way for it to stop:
//
//   - the spawned function literal receives from a channel, selects on
//     a receive, ranges over a channel, or calls ctx.Done()/ctx.Err();
//   - it calls a function whose propagated CancelAware fact is set —
//     the cancellation check may live three packages away;
//   - a dynamic call (through a function value) is handed a
//     context.Context, delegating cancellation to whatever runs;
//   - a named spawned function is CancelAware per the module facts.
//
// Everything else is a finding. Goroutines that genuinely terminate on
// their own (a bounded worker draining a closed channel it also
// closes, an http Serve loop stopped by closing the listener) carry an
// //mnoclint:allow goroleak directive stating that reason.
package goroleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"mnoc/internal/analysis"
)

// Analyzer is the goroutine-cancellation rule.
var Analyzer = &analysis.Analyzer{
	Name: "goroleak",
	Doc: "goroutines in internal/server, internal/fleet, internal/adapt, internal/flight and internal/fanout must have " +
		"a cancellation path (receive, select, ctx.Done/Err, or a cancel-aware callee per module facts) " +
		"or an //mnoclint:allow explaining how they terminate",
	Run: run,
}

// scopedPackages are the long-lived service packages the rule applies
// to, plus fanout, whose pool goroutines every sweep and service
// fan-out runs on; batch tools and libraries may spawn
// run-to-completion helpers.
var scopedPackages = map[string]bool{
	"server": true,
	"fleet":  true,
	"adapt":  true,
	"flight": true,
	"fanout": true,
}

func run(pass *analysis.Pass) error {
	if !scopedPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkSpawn(pass, gs)
			return true
		})
	}
	return nil
}

func checkSpawn(pass *analysis.Pass, gs *ast.GoStmt) {
	call := gs.Call
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		if bodyCancelAware(pass, fun.Body) {
			return
		}
		pass.Reportf(gs.Pos(),
			"goroutine has no cancellation path: the function literal never receives, selects, observes a context, or calls anything cancel-aware, so shutdown cannot stop it")
	default:
		callee := analysis.CalleeFunc(pass.Info, call)
		if callee == nil {
			// Spawning through a function value: accepted when a context
			// travels with the call, otherwise nothing ties its lifetime
			// to anything.
			for _, arg := range call.Args {
				if tv, ok := pass.Info.Types[arg]; ok && analysis.IsContextType(tv.Type) {
					return
				}
			}
			pass.Reportf(gs.Pos(),
				"goroutine spawned through a function value without a context: nothing ties its lifetime to shutdown")
			return
		}
		if facts := pass.Module.FactsOf(callee); facts != nil && facts.CancelAware {
			return
		}
		if analysis.IsContextMethod(callee, "Err") || analysis.IsContextMethod(callee, "Done") {
			return
		}
		pass.Reportf(gs.Pos(),
			"goroutine running %s has no cancellation path: neither it nor anything it calls receives, selects, or observes a context", callee.Name())
	}
}

// bodyCancelAware reports whether body locally observes cancellation or
// calls something that does (per the module's propagated facts).
func bodyCancelAware(pass *analysis.Pass, body *ast.BlockStmt) bool {
	aware := false
	ast.Inspect(body, func(n ast.Node) bool {
		if aware {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			// Covers bare receives and receive cases inside selects.
			if n.Op == token.ARROW {
				aware = true
			}
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					aware = true
				}
			}
		case *ast.CallExpr:
			callee := analysis.CalleeFunc(pass.Info, n)
			if callee == nil {
				for _, arg := range n.Args {
					if tv, ok := pass.Info.Types[arg]; ok && analysis.IsContextType(tv.Type) {
						aware = true
					}
				}
				break
			}
			if analysis.IsContextMethod(callee, "Err") || analysis.IsContextMethod(callee, "Done") {
				aware = true
				break
			}
			if facts := pass.Module.FactsOf(callee); facts != nil && facts.CancelAware {
				aware = true
			}
		}
		return !aware
	})
	return aware
}
