// Package goroleak enforces that goroutines started in the long-lived
// service packages (server, fleet, adapt, and flight, the coalescing
// group they and exp.Context share) and in fanout, the worker pool
// under every sweep, have a cancellation path.
// Those processes run for the life of a deployment; a goroutine that
// never observes shutdown accumulates across config reloads and drains
// until the process is OOM-killed mid-sweep.
//
// A spawn is accepted when the analyzer can see a way for it to stop,
// from the spawn site alone:
//
//   - the spawned call, or any call inside the spawned function
//     literal, is handed a context.Context, delegating cancellation to
//     the callee;
//   - the literal receives from a channel, selects on a receive, or
//     ranges over a channel;
//   - the literal calls ctx.Done() or ctx.Err().
//
// Everything else is a finding. Goroutines that genuinely terminate on
// their own (a bounded worker draining a closed channel it also
// closes, an http Serve loop stopped by closing the listener) carry an
// //mnoclint:allow goroleak directive stating that reason. A callee
// handed a context is trusted to watch it; the tests that stop each
// service and count its goroutines hold it to that.
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
		"a cancellation path (a context handed to the spawned call or to a call in its body, a receive, select, " +
		"channel range, or ctx.Done/Err) or an //mnoclint:allow explaining how they terminate",
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
	if handedContext(pass.Info, call) {
		return
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		if bodyCancelAware(pass.Info, lit.Body) {
			return
		}
		pass.Reportf(gs.Pos(),
			"goroutine has no cancellation path: the function literal never receives, selects, observes a context, or calls anything cancel-aware, so shutdown cannot stop it")
		return
	}
	if callee := analysis.CalleeFunc(pass.Info, call); callee != nil {
		pass.Reportf(gs.Pos(),
			"goroutine running %s has no cancellation path: it is handed no context, so nothing ties its lifetime to shutdown", callee.Name())
		return
	}
	pass.Reportf(gs.Pos(),
		"goroutine spawned through a function value without a context: nothing ties its lifetime to shutdown")
}

// handedContext reports whether any argument of call is a
// context.Context.
func handedContext(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && analysis.IsContextType(tv.Type) {
			return true
		}
	}
	return false
}

// bodyCancelAware reports whether body receives, selects, ranges over a
// channel, calls ctx.Done/Err, or hands a context to a call.
func bodyCancelAware(info *types.Info, body *ast.BlockStmt) bool {
	aware := false
	ast.Inspect(body, func(n ast.Node) bool {
		if aware {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			// Covers bare receives and receive cases inside selects.
			aware = n.Op == token.ARROW
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				_, aware = tv.Type.Underlying().(*types.Chan)
			}
		case *ast.CallExpr:
			callee := analysis.CalleeFunc(info, n)
			aware = handedContext(info, n) ||
				analysis.IsContextMethod(callee, "Err") || analysis.IsContextMethod(callee, "Done")
		}
		return !aware
	})
	return aware
}
