// Package leafloop keeps the kernels' hot loops call-free.
//
// The keyed kernel's inner loops — scatter placement and resolve, the
// tree's placement and per-slot sweep, the sparse walker's resolve — are
// fast because their common path makes no call: Go then keeps the loop
// state in registers instead of spilling it around every call. A single
// innocent-looking helper call that does not inline silently undoes
// that. A function whose doc comment carries //breathe:leaf <reason> is
// therefore checked here. It may call only
//
//   - the builtins len, cap, min and max;
//   - type conversions;
//   - functions of math/bits;
//   - functions that are themselves annotated leaf, in its own package
//     or, through facts, in a module dependency.
//
// It may not contain a closure, a go or defer statement, or a call of
// append, make, panic or any other builtin, and it may not call through
// an interface or a function value. The rare cases a leaf loop cannot
// handle break out to a caller that is not annotated.
package leafloop

import (
	"go/ast"
	"go/types"
	"sort"

	"breathe/internal/lint"
)

// Analyzer is the leafloop checker.
var Analyzer = &lint.Analyzer{
	Name: "leafloop",
	Doc:  "check that //breathe:leaf functions make no call outside leaf functions, math/bits and len/cap/min/max",
	Run:  run,
}

// fact lists a package's leaf-annotated functions for its dependents.
type fact struct {
	Leaf []string `json:"leaf,omitempty"`
}

// allowedBuiltins are the builtins a leaf function may call: they
// compile to a few instructions and never to a runtime call.
var allowedBuiltins = map[string]bool{"len": true, "cap": true, "min": true, "max": true}

func run(pass *lint.Pass) error {
	if !pass.InModule() {
		return nil
	}
	leaf := make(map[*types.Func]bool)
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			reason, ok := lint.DocAt(decl.Doc, lint.AnnotLeaf)
			if !ok {
				continue
			}
			if reason == "" {
				pass.Reportf(decl.Name.Pos(), "//breathe:leaf on %s needs a reason", decl.Name.Name)
			}
			if fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func); ok {
				leaf[fn] = true
				decls = append(decls, decl)
			}
		}
	}
	deps := make(map[string]map[string]bool)
	isLeaf := func(fn *types.Func) bool {
		if fn.Pkg() == pass.Pkg {
			return leaf[fn]
		}
		path := fn.Pkg().Path()
		set, ok := deps[path]
		if !ok {
			set = make(map[string]bool)
			var dep fact
			if pass.ImportFact(path, &dep) {
				for _, k := range dep.Leaf {
					set[k] = true
				}
			}
			deps[path] = set
		}
		return set[funcKey(fn)]
	}
	for _, decl := range decls {
		if decl.Body != nil {
			check(pass, decl, isLeaf)
		}
	}

	var out fact
	for fn := range leaf {
		out.Leaf = append(out.Leaf, funcKey(fn))
	}
	sort.Strings(out.Leaf)
	return pass.ExportFact(out)
}

// check reports every construct in decl's body that a leaf function may
// not contain.
func check(pass *lint.Pass, decl *ast.FuncDecl, isLeaf func(*types.Func) bool) {
	name := decl.Name.Name
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "leaf function %s contains a closure", name)
			return false
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "leaf function %s starts a goroutine", name)
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "leaf function %s defers a call", name)
		case *ast.CallExpr:
			if why := callViolation(pass, n, isLeaf); why != "" {
				pass.Reportf(n.Pos(), "leaf function %s %s", name, why)
			}
		}
		return true
	})
}

// callViolation explains why a leaf function may not make call, or
// returns "" when it may.
func callViolation(pass *lint.Pass, call *ast.CallExpr, isLeaf func(*types.Func) bool) string {
	fun := lint.Unparen(call.Fun)
	if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
		return "" // conversion
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	case *ast.IndexExpr: // generic instantiation
		if x, ok := lint.Unparen(f.X).(*ast.Ident); ok {
			id = x
		}
	}
	if id == nil {
		return "calls a function value"
	}
	switch obj := pass.TypesInfo.Uses[id].(type) {
	case *types.Builtin:
		if allowedBuiltins[obj.Name()] {
			return ""
		}
		return "calls builtin " + obj.Name()
	case *types.Func:
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			return "calls interface method " + obj.Name()
		}
		if obj.Pkg() == nil {
			return "calls " + obj.Name()
		}
		if obj.Pkg().Path() == "math/bits" || isLeaf(obj) {
			return ""
		}
		where := ""
		if obj.Pkg() != pass.Pkg {
			where = obj.Pkg().Path() + "."
		}
		return "calls " + where + funcKey(obj) + ", which is not annotated //breathe:leaf"
	}
	return "calls a function value"
}

// funcKey names a function within its package: "F" for package-level
// functions, "T.M" for methods.
func funcKey(fn *types.Func) string {
	if _, typeName, ok := lint.MethodRecv(fn); ok {
		return typeName + "." + fn.Name()
	}
	return fn.Name()
}
