package lint

import (
	"go/ast"
	"go/types"
)

// RNGPath is the import path of the randomness package every draw must
// flow through.
const RNGPath = "breathe/internal/rng"

// Unparen strips parentheses.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// Callee resolves the static *types.Func a call invokes: a package
// function, a method on a concrete receiver, or a method selected
// through an interface (the caller can distinguish via the receiver
// type). It returns nil for calls of function-typed values, func
// literals, conversions, and builtins — the dynamic calls a static
// callgraph cannot chase.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				fn, _ := sel.Obj().(*types.Func)
				return fn
			}
			return nil // method expression or func-typed field
		}
		// Qualified identifier: pkg.F.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// IsPkgCall reports whether the call is pkgPath.name(...) — a direct
// call of a package-level function resolved through the type
// information, robust against renamed imports.
func IsPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string, names map[string]bool) (string, bool) {
	fn := Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false
	}
	if !names[fn.Name()] {
		return "", false
	}
	return fn.Name(), true
}

// MethodRecv resolves the defining package path and named receiver type
// of a method, dereferencing a pointer receiver. ok is false for
// non-methods and methods on unnamed receivers.
func MethodRecv(fn *types.Func) (pkgPath, typeName string, ok bool) {
	if fn == nil {
		return "", "", false
	}
	sig, sok := fn.Type().(*types.Signature)
	if !sok || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, nok := t.(*types.Named)
	if !nok {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// drawMethods lists, per receiver type in the rng package, the methods
// that consume or derive randomness. These are the primitives; anything
// built on top of them (rng's own composite draws, protocol helpers) is
// caught transitively through facts.
var drawMethods = map[string]map[string]bool{
	"RNG": {
		"Uint64": true, "Uint64n": true, "Float64": true, "Binomial": true,
	},
	"Cell": {
		"Uint64": true, "Uint64n": true, "Uint32n": true, "Fill": true,
		"Words": true, "Sub": true,
	},
	"Key": {
		"Cell": true,
	},
}

// DrawMethod reports whether fn is one of the rng draw primitives, and
// names it ("Cell.Uint64") for diagnostics.
func DrawMethod(fn *types.Func) (string, bool) {
	pkgPath, typeName, ok := MethodRecv(fn)
	if !ok || pkgPath != RNGPath {
		return "", false
	}
	if drawMethods[typeName][fn.Name()] {
		return typeName + "." + fn.Name(), true
	}
	return "", false
}

// KeyCellCall reports whether call is the Key.Cell construction — the
// point where a subsystem commits to a (stream, round) address.
func KeyCellCall(info *types.Info, call *ast.CallExpr) bool {
	return RNGMethodCall(info, call, "Key", "Cell")
}

// RNGMethodCall reports whether call invokes the rng package's method
// typeName.name.
func RNGMethodCall(info *types.Info, call *ast.CallExpr, typeName, name string) bool {
	fn := Callee(info, call)
	pkgPath, recv, ok := MethodRecv(fn)
	return ok && pkgPath == RNGPath && recv == typeName && fn.Name() == name
}
