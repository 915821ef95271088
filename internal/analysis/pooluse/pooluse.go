// Package pooluse enforces the repository's sync.Pool discipline. The
// hot paths recycle scratch buffers (sim packet traces, noc replay
// latencies, power mode scratch); a pooled
// value that is read after Put races with whoever Gets it next, a
// value Put without a reset leaks one call's data into another, and a
// pooled value that escapes into longer-lived state keeps aliasing the
// buffer after the pool re-issues it. Three rules, per function:
//
//  1. reset-before-Put: every sync.Pool.Put argument must have seen a
//     reset on the way — a [:0] truncation, a Reset() call, clear(),
//     or a full element overwrite (fixed-size scratch).
//  2. no-use-after-Put: the Put argument (and its local aliases) may
//     not be read after the Put. A Put directly followed by a return
//     (the put-and-bail error idiom) is exempt from this scan.
//  3. no-escape (interprocedural): a value obtained from Pool.Get that
//     is both Put in this function and passed to a callee whose
//     corresponding parameter escapes (per the module's propagated
//     EscapesParam facts) is retained beyond the Put.
package pooluse

import (
	"go/ast"
	"go/token"
	"go/types"

	"mnoc/internal/analysis"
)

// Analyzer is the sync.Pool discipline rule.
var Analyzer = &analysis.Analyzer{
	Name: "pooluse",
	Doc: "sync.Pool values must be reset before Put, never used after Put, " +
		"and never escape into longer-lived state (uses cross-package escape facts)",
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

// poolMethodCall reports whether call invokes name on a sync.Pool
// (or a Pool stand-in from a fixture package named sync).
func poolMethodCall(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Name() != name || !analysis.PackageMatches(fn.Pkg(), "sync") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}

// putCall is one sync.Pool.Put with a resolved argument root.
type putCall struct {
	call *ast.CallExpr
	root types.Object
	// bails marks a Put whose next statement in its block is a return
	// (or that ends its block): the put-and-bail idiom. Later positions
	// in the source are other control-flow paths, so the after-use scan
	// is limited to ret, the return statement itself.
	bails bool
	ret   *ast.ReturnStmt
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.Info

	// Pass A: pooled variables (Get results), local alias groups, Put
	// calls, and reset markers, in one walk.
	pooled := map[types.Object]bool{}        // objects holding Pool.Get results
	group := map[types.Object]types.Object{} // alias -> canonical root
	reset := map[types.Object][]token.Pos{}  // canonical root -> reset marker positions
	var puts []putCall

	canon := func(obj types.Object) types.Object {
		for obj != nil {
			next, ok := group[obj]
			if !ok || next == obj {
				return obj
			}
			obj = next
		}
		return obj
	}
	link := func(a, b types.Object) { // a joins b's group
		if a != nil && b != nil && canon(a) != canon(b) {
			group[canon(a)] = canon(b)
		}
	}
	markReset := func(obj types.Object, pos token.Pos) {
		if obj == nil {
			return
		}
		obj = canon(obj)
		reset[obj] = append(reset[obj], pos)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			recordAssign(pass, n, pooled, link, markReset)
		case *ast.CallExpr:
			recordCall(pass, n, markReset)
		}
		return true
	})

	// Pass B: locate Puts and classify the put-and-bail idiom by
	// scanning statement lists for a Put directly followed by return.
	bailPuts := map[*ast.CallExpr]*ast.ReturnStmt{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for i, stmt := range list {
			es, ok := stmt.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok || !poolMethodCall(info, call, "Put") {
				continue
			}
			if i+1 < len(list) {
				if ret, ok := list[i+1].(*ast.ReturnStmt); ok {
					bailPuts[call] = ret
				}
			} else {
				// Last statement of its block: nothing runs after it on
				// this path.
				bailPuts[call] = nil
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !poolMethodCall(info, call, "Put") || len(call.Args) != 1 {
			return true
		}
		root := canon(analysis.BaseIdentObj(info, call.Args[0]))
		ret, bails := bailPuts[call]
		puts = append(puts, putCall{call: call, root: root, bails: bails, ret: ret})
		return true
	})

	// Rule 1: reset before Put.
	for _, p := range puts {
		if p.root == nil {
			continue
		}
		if exprContainsTruncation(p.call.Args[0]) {
			continue
		}
		ok := false
		for _, pos := range reset[p.root] {
			if pos < p.call.Pos() {
				ok = true
				break
			}
		}
		if !ok {
			pass.Reportf(p.call.Pos(),
				"value returned to sync.Pool without a reset: truncate with [:0], call Reset/clear, or overwrite every element before Put, so one call's data cannot leak into the next")
		}
	}

	// Rule 2: no use after Put. Group members count as uses. A bail Put
	// only has its own return statement left on its path, so only that
	// statement is scanned; positions further down are other paths.
	for _, p := range puts {
		if p.root == nil {
			continue
		}
		var scope ast.Node = fd.Body
		if p.bails {
			if p.ret == nil {
				continue
			}
			scope = p.ret
		}
		reported := false
		ast.Inspect(scope, func(n ast.Node) bool {
			if reported {
				return false
			}
			id, ok := n.(*ast.Ident)
			if !ok || id.Pos() <= p.call.End() {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || canon(obj) != p.root {
				return true
			}
			if withinAnyPut(info, fd, id) {
				return true
			}
			pass.Reportf(id.Pos(),
				"use of %s after it was returned to the pool: the pool may already have handed the buffer to another goroutine", id.Name)
			reported = true
			return false
		})
	}

	// Rule 3 (interprocedural): a pooled value that is Put here must
	// not also be passed to a callee that retains it.
	putRoots := map[types.Object]bool{}
	for _, p := range puts {
		if p.root != nil {
			putRoots[p.root] = true
		}
	}
	if len(putRoots) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || poolMethodCall(info, call, "Put") {
			return true
		}
		callee := analysis.CalleeFunc(info, call)
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
		}
		for i, arg := range call.Args {
			obj := canon(analysis.BaseIdentObj(info, arg))
			if obj == nil || !pooled[canon(obj)] || !putRoots[canon(obj)] {
				continue
			}
			pi := i
			if sig.Variadic() && pi >= sig.Params().Len()-1 {
				pi = sig.Params().Len() - 1
			}
			fi := offset + pi
			if fi < len(facts.EscapesParam) && facts.EscapesParam[fi] {
				pass.Reportf(arg.Pos(),
					"pooled value escapes via %s, which stores its argument beyond the call: the buffer stays referenced after Put re-issues it", callee.Name())
			}
		}
		return true
	})
}

// recordAssign tracks Get results, alias links and reset markers from
// one assignment.
func recordAssign(pass *analysis.Pass, as *ast.AssignStmt, pooled map[types.Object]bool, link func(a, b types.Object), markReset func(types.Object, token.Pos)) {
	info := pass.Info
	if len(as.Rhs) != 1 {
		return
	}
	rhs := ast.Unparen(as.Rhs[0])
	lhsObj := func() types.Object {
		if len(as.Lhs) == 0 {
			return nil
		}
		id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}

	// x := pool.Get().(T) / x := pool.Get()
	get := rhs
	if ta, ok := get.(*ast.TypeAssertExpr); ok {
		get = ast.Unparen(ta.X)
	}
	if call, ok := get.(*ast.CallExpr); ok && poolMethodCall(info, call, "Get") {
		if obj := lhsObj(); obj != nil {
			pooled[obj] = true
		}
		return
	}

	// Alias: a := v / a := *v / a := v[...] — the right root joins the
	// left variable's group so uses and resets transfer.
	switch rhs.(type) {
	case *ast.Ident, *ast.StarExpr, *ast.SliceExpr, *ast.IndexExpr, *ast.UnaryExpr:
		src := analysis.BaseIdentObj(info, rhs)
		dst := lhsObj()
		if src != nil && dst != nil {
			link(dst, src)
		}
	}
	// Reset marker: v (or an alias) assigned from a [:0] truncation.
	// `*bufp = buf[:0]` resets the pooled pointer bufp too, so the base
	// of the left side is marked alongside the plain-ident case.
	if exprContainsTruncation(as.Rhs[0]) {
		if obj := lhsObj(); obj != nil {
			markReset(obj, as.Pos())
		}
		if len(as.Lhs) == 1 {
			if obj := analysis.BaseIdentObj(info, as.Lhs[0]); obj != nil {
				markReset(obj, as.Pos())
			}
		}
		if src := analysis.BaseIdentObj(info, rhs); src != nil {
			markReset(src, as.Pos())
		}
	}
	// Reset marker: element overwrite v[i] = x (fixed-size scratch).
	for _, lhs := range as.Lhs {
		if _, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if obj := analysis.BaseIdentObj(info, lhs); obj != nil {
				markReset(obj, as.Pos())
			}
		}
	}
}

// recordCall marks Reset()/clear() calls as reset markers.
func recordCall(pass *analysis.Pass, call *ast.CallExpr, markReset func(types.Object, token.Pos)) {
	info := pass.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Reset" {
			if obj := analysis.BaseIdentObj(info, fun.X); obj != nil {
				markReset(obj, call.Pos())
			}
		}
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok && b.Name() == "clear" && len(call.Args) == 1 {
			if obj := analysis.BaseIdentObj(info, call.Args[0]); obj != nil {
				markReset(obj, call.Pos())
			}
		}
	}
}

// exprContainsTruncation reports whether expr contains a [:0] slice.
func exprContainsTruncation(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		sl, ok := n.(*ast.SliceExpr)
		if !ok || found {
			return !found
		}
		if lit, ok := sl.High.(*ast.BasicLit); ok && lit.Value == "0" {
			found = true
		}
		return !found
	})
	return found
}

// withinAnyPut reports whether id sits inside a sync.Pool.Put call
// (Put arguments are not "uses": a second Put on another path is the
// same hand-back, not a read).
func withinAnyPut(info *types.Info, fd *ast.FuncDecl, id *ast.Ident) bool {
	within := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || within {
			return !within
		}
		if poolMethodCall(info, call, "Put") &&
			call.Pos() <= id.Pos() && id.End() <= call.End() {
			within = true
		}
		return !within
	})
	return within
}
