package analysis

import (
	"go/ast"
	"go/types"
)

// ctxroundTargets names the engine packages (by import-path basename)
// whose round/batch loops carry the PR-4 cancellation contract: ctx is
// checked at every round and batch boundary, so a cancelled solve or
// ingest returns within one round. Other packages — the graph loaders,
// the ops binary — have their own latency structure and are not held
// to it.
var ctxroundTargets = map[string]bool{
	"core":        true,
	"native":      true,
	"incremental": true,
	"pram":        true,
	"ccbase":      true,
	"spanning":    true,
}

// Ctxround enforces that contract statically:
//
//  1. In a context-aware function (one that references a
//     context.Context value), every unbounded `for` loop must reach a
//     ctx check — reference ctx in its condition or body, directly or
//     inside a nested closure. Deleting the ctx.Err() at the top of
//     the simulated engine's round loop (internal/core) trips this
//     rule.
//  2. An exported function that directly contains an unbounded loop
//     must be context-aware: engine entry points accept a
//     context.Context (or a Params struct carrying one) so callers can
//     bound them.
//
// A loop is unbounded unless it ranges, or its condition tests the
// variable its init/post clause drives (a plain counter). CAS retry
// loops — `for { ... CompareAndSwap ... }` — are exempt: they
// terminate in a bounded number of contention retries and are the
// lock-free engines' bread and butter.
var Ctxround = &Analyzer{
	Name: "ctxround",
	Doc:  "engine round/batch loops reach a ctx check; exported entry points with unbounded loops take a Context",
	Run:  runCtxround,
}

func runCtxround(pass *Pass) {
	if !ctxroundTargets[pathBase(pass.Pkg.ImportPath)] {
		return
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkCtxFunc(pass, fn)
		}
	}
}

func pathBase(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}

func checkCtxFunc(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	aware := referencesContext(info, fn.Body) || funcTypeHasContext(info, fn.Type)

	var loops []*ast.ForStmt
	collectDirectLoops(fn.Body, &loops)
	for _, loop := range loops {
		if boundedLoop(info, loop) || casRetryLoop(loop) {
			continue
		}
		switch {
		case !aware && fn.Name.IsExported():
			pass.Reportf(loop.For, "exported engine entry point %s has an unbounded loop but no context.Context; cancellation must be able to reach it", fn.Name.Name)
		case aware && !referencesContext(info, loopCondAndBody(loop)):
			pass.Reportf(loop.For, "unbounded loop in context-aware function %s never checks ctx; add a ctx.Err()/Done() check at the round boundary", fn.Name.Name)
		}
	}

	// Nested function literals are their own scopes: a closure that
	// captures ctx is context-aware on its own.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		litAware := referencesContext(info, lit.Body)
		var litLoops []*ast.ForStmt
		collectDirectLoops(lit.Body, &litLoops)
		for _, loop := range litLoops {
			if boundedLoop(info, loop) || casRetryLoop(loop) {
				continue
			}
			if litAware && !referencesContext(info, loopCondAndBody(loop)) {
				pass.Reportf(loop.For, "unbounded loop in context-aware closure never checks ctx; add a ctx.Err()/Done() check at the chunk boundary")
			}
		}
		return true
	})
}

// collectDirectLoops gathers the for-loops of body that are not inside
// a nested function literal (those are checked as their own scope).
func collectDirectLoops(body ast.Node, out *[]*ast.ForStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			*out = append(*out, n)
		}
		return true
	})
}

// loopCondAndBody wraps a loop's condition and body for the ctx-usage
// scan; the init/post clauses cannot hold a meaningful check.
func loopCondAndBody(loop *ast.ForStmt) ast.Node {
	if loop.Cond == nil {
		return loop.Body
	}
	return loop // cond included; init/post are counters and harmless to scan
}

// referencesContext reports whether any expression under n has static
// type context.Context — a parameter, local, free variable, or a
// struct field like the incremental engine's spanCtx.
func referencesContext(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		switch x := x.(type) {
		case *ast.Ident:
			if obj := info.ObjectOf(x); obj != nil {
				if _, isVar := obj.(*types.Var); isVar && isContextType(obj.Type()) {
					found = true
				}
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal && isContextType(sel.Obj().Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

// funcTypeHasContext reports whether the signature declares a
// context.Context parameter (counts as aware even if unused — the
// entry-point rule only needs the parameter to exist).
func funcTypeHasContext(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, f := range ft.Params.List {
		if t := info.TypeOf(f.Type); t != nil && isContextType(t) {
			return true
		}
	}
	return false
}

// boundedLoop reports whether loop is a plain counter: `for i := lo;
// i < hi; i++` and friends — the condition reads the variable the
// init or post clause drives.
func boundedLoop(info *types.Info, loop *ast.ForStmt) bool {
	if loop.Cond == nil {
		return false
	}
	driven := map[types.Object]bool{}
	collect := func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						driven[obj] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					driven[obj] = true
				}
			}
		}
	}
	if loop.Init != nil {
		collect(loop.Init)
	}
	if loop.Post != nil {
		collect(loop.Post)
	}
	if len(driven) == 0 {
		return false
	}
	bounded := false
	ast.Inspect(loop.Cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && driven[info.ObjectOf(id)] {
			bounded = true
		}
		return !bounded
	})
	return bounded
}

// casRetryLoop reports whether loop's direct body performs a
// compare-and-swap — the lock-free retry shape (find/union-by-CAS,
// budget max-combining) that finishes in bounded contention retries.
func casRetryLoop(loop *ast.ForStmt) bool {
	found := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if n, ok := n.(*ast.FuncLit); ok && n != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if name == "CompareAndSwap" || name == "CompareAndSwapInt32" ||
			name == "CompareAndSwapInt64" || name == "CompareAndSwapUint64" ||
			name == "CAS32" || name == "CAS64" {
			found = true
		}
		return !found
	})
	return found
}
