// Package drawfree proves that annotated functions perform no RNG
// draws on any path.
//
// Several of the repository's contracts are of the form "this path
// touches no stream": a cache hit serves stored bytes without waking a
// kernel, the cancel poll at the round barrier leaves every stream
// untouched so a canceled prefix is bit-identical to an uncanceled
// run's, and a quiet round advances no generator. Each was once enforced
// by one test and a comment. A function carrying //breathe:drawfree in
// its doc comment is now proven over the static callgraph: no draw
// primitive (rng.RNG draw methods, rng.Cell.*, rng.Key.Cell) is reachable
// from it through any chain of static calls, across package boundaries
// via facts.
//
// The proof is necessarily static: a call through an interface or a
// function value inside a drawfree function is reported as unprovable
// rather than assumed innocent. Calls into packages outside the module
// are assumed draw-free (the standard library cannot reach
// breathe/internal/rng). Taking a draw method as a value counts as a
// draw: a drawfree function has no business holding one.
package drawfree

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"breathe/internal/lint"
)

// Analyzer is the drawfree checker.
var Analyzer = &lint.Analyzer{
	Name: "drawfree",
	Doc:  "prove //breathe:drawfree functions reach no rng draw over the static callgraph",
	Run:  run,
}

// fact is the per-package summary exported for dependents: for every
// function that may draw (or that the static callgraph cannot clear),
// a human-readable witness of why.
type fact struct {
	MayDraw    map[string]string `json:"may_draw,omitempty"`
	MayDynamic map[string]string `json:"may_dynamic,omitempty"`
}

// funcInfo is the intra-package callgraph node for one declared
// function.
type funcInfo struct {
	decl      *ast.FuncDecl
	key       string
	annotated bool
	// drawWhy / dynWhy are witness strings, set once the function is
	// known to (possibly) draw / escape the static graph.
	drawWhy string
	dynWhy  string
	callees []*types.Func // static, same-package
}

func run(pass *lint.Pass) error {
	if !pass.InModule() {
		return nil
	}
	infos := make(map[string]*funcInfo)
	byFunc := make(map[*types.Func]string)

	// Pass 1: collect declarations.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Name == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			key := funcKey(fn)
			if _, taken := infos[key]; taken {
				// Multiple init functions share a name; keep them apart.
				key = fmt.Sprintf("%s#%d", key, len(infos))
			}
			infos[key] = &funcInfo{
				decl:      decl,
				key:       key,
				annotated: lint.DocHas(decl.Doc, lint.AnnotDrawFree) || pass.Annotations().Has(decl.Pos(), lint.AnnotDrawFree),
			}
			byFunc[fn] = key
		}
	}

	// Pass 2: seed each node with direct draws, dynamic calls, and
	// cross-package verdicts; record local edges.
	for _, info := range infos {
		if info.decl.Body == nil {
			continue // assembly or linkname stub: nothing provable, nothing drawn
		}
		scanBody(pass, info)
	}

	// Pass 3: propagate may-draw / may-dynamic over local edges to a
	// fixpoint.
	for changed := true; changed; {
		changed = false
		for _, info := range infos {
			for _, callee := range info.callees {
				ck, ok := byFunc[callee]
				if !ok {
					continue
				}
				c := infos[ck]
				if info.drawWhy == "" && c.drawWhy != "" {
					info.drawWhy = "calls " + ck + ", which " + c.drawWhy
					changed = true
				}
				if info.dynWhy == "" && c.dynWhy != "" {
					info.dynWhy = "calls " + ck + ", which " + c.dynWhy
					changed = true
				}
			}
		}
	}

	// Pass 4: report on annotated functions and export the summary.
	out := fact{MayDraw: map[string]string{}, MayDynamic: map[string]string{}}
	for _, info := range infos {
		if info.drawWhy != "" {
			out.MayDraw[info.key] = clip(info.drawWhy)
		}
		if info.dynWhy != "" {
			out.MayDynamic[info.key] = clip(info.dynWhy)
		}
		if !info.annotated {
			continue
		}
		if info.drawWhy != "" {
			pass.Reportf(info.decl.Name.Pos(), "%s is annotated //breathe:drawfree but %s", info.key, clip(info.drawWhy))
		} else if info.dynWhy != "" {
			pass.Reportf(info.decl.Name.Pos(), "%s is annotated //breathe:drawfree but cannot be proven: %s", info.key, clip(info.dynWhy))
		}
	}
	return pass.ExportFact(out)
}

// scanBody records the draws, dynamic calls and callees of one
// function body (func literals inside count against the enclosing
// declaration: a drawfree function may not even construct a drawing
// closure).
func scanBody(pass *lint.Pass, info *funcInfo) {
	ast.Inspect(info.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// Method values and method expressions, in or out of call
			// position. A draw primitive referenced here is a draw;
			// a module method taken as a value becomes an edge.
			var fn *types.Func
			if sel, ok := pass.TypesInfo.Selections[n]; ok {
				fn, ok = sel.Obj().(*types.Func)
				if !ok {
					return true
				}
			} else if fn, ok = pass.TypesInfo.Uses[n.Sel].(*types.Func); !ok {
				return true // qualified non-function: package var, const, type
			}
			if name, isDraw := lint.DrawMethod(fn); isDraw {
				info.draw(fmt.Sprintf("draws rng.%s at %s", name, pos(pass, n.Pos())))
				return true
			}
			if types.IsInterface(recvType(fn)) {
				info.dynamic(fmt.Sprintf("calls interface method %s at %s", fn.Name(), pos(pass, n.Pos())))
				return true
			}
			info.edge(pass, fn, n.Pos())
		case *ast.CallExpr:
			fun := lint.Unparen(n.Fun)
			if sel, isSel := fun.(*ast.SelectorExpr); isSel {
				// Methods and qualified functions are handled as
				// SelectorExpr above; what remains here is calling a
				// function-typed field, which no static graph can chase.
				if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
					info.dynamic(fmt.Sprintf("calls a function value at %s", pos(pass, n.Pos())))
				}
				return true
			}
			if _, isLit := fun.(*ast.FuncLit); isLit {
				return true // body is walked inline
			}
			if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
				return true // conversion
			}
			if id, ok := fun.(*ast.Ident); ok {
				switch obj := pass.TypesInfo.Uses[id].(type) {
				case *types.Builtin, *types.TypeName, nil:
					return true
				case *types.Func:
					info.edge(pass, obj, n.Pos())
					return true
				default:
					_ = obj // a variable of function type: dynamic
				}
			}
			info.dynamic(fmt.Sprintf("calls a function value at %s", pos(pass, n.Pos())))
		}
		return true
	})
}

// edge records a call of fn: a local edge for same-package targets, a
// fact lookup for module dependencies, and nothing for packages
// outside the module (which cannot reach the rng package).
func (info *funcInfo) edge(pass *lint.Pass, fn *types.Func, at token.Pos) {
	if fn.Pkg() == nil {
		return
	}
	if fn.Pkg() == pass.Pkg {
		info.callees = append(info.callees, fn)
		return
	}
	path := fn.Pkg().Path()
	if path != pass.Module && !strings.HasPrefix(path, pass.Module+"/") {
		return
	}
	var dep fact
	if !pass.ImportFact(path, &dep) {
		return
	}
	key := funcKey(fn)
	if why, ok := dep.MayDraw[key]; ok && info.drawWhy == "" {
		info.drawWhy = fmt.Sprintf("calls %s.%s at %s, which %s", path, key, pos(pass, at), why)
	}
	if why, ok := dep.MayDynamic[key]; ok && info.dynWhy == "" {
		info.dynWhy = fmt.Sprintf("calls %s.%s at %s, which %s", path, key, pos(pass, at), why)
	}
}

func (info *funcInfo) draw(why string) {
	if info.drawWhy == "" {
		info.drawWhy = why
	}
}

func (info *funcInfo) dynamic(why string) {
	if info.dynWhy == "" {
		info.dynWhy = why
	}
}

// funcKey names a function within its package: "F" for package-level
// functions, "T.M" for methods (pointerness elided; Go method sets
// cannot collide on the flattened form).
func funcKey(fn *types.Func) string {
	if _, typeName, ok := lint.MethodRecv(fn); ok {
		return typeName + "." + fn.Name()
	}
	return fn.Name()
}

func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return types.Typ[types.Invalid]
	}
	return sig.Recv().Type()
}

func pos(pass *lint.Pass, p token.Pos) string {
	position := pass.Position(p)
	return fmt.Sprintf("%s:%d", filepath.Base(position.Filename), position.Line)
}

// clip bounds witness chains: past a few links the head of the chain is
// what the reader needs.
func clip(s string) string {
	const max = 400
	if len(s) <= max {
		return s
	}
	return s[:max] + "…"
}
