// Package streamconst polices how subsystems address the keyed draw
// schedule.
//
// Under rng.Key, a draw is a pure function of its address
// (stream, round, index, counter); two subsystems are independent
// exactly because they never construct the same address. That property
// is only as strong as the discipline at each Key.Cell call site, so
// two rules hold in every consumer package:
//
//   - The stream argument must be a named rng.Stream* constant. An
//     integer literal (or a conversion of one) is an unregistered
//     stream: nothing stops the next subsystem from picking the same
//     number, and nothing greps for it.
//
//   - No two call sites may construct cells with the same
//     (stream, addressing shape) pair. Same stream, same round
//     expression shape, same derivation chain means the two sites emit
//     overlapping addresses — a draw collision — unless they are
//     mutually exclusive at runtime, which the author asserts with
//     //breathe:stream-ok <reason> at either site.
//
// A third rule holds in the non-test code of every module package: an
// rng.RNG may only be seeded from a cell word, RNG.Reseed(c.Uint64(i)).
// A generator seeded from anything else — a constant, a run seed, another
// generator — is a sequential stream outside the keyed schedule, whose
// draws depend on how many came before them.
//
// The rng package itself (and its tests, which exercise arbitrary
// cells) is out of scope.
package streamconst

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"breathe/internal/lint"
)

// Analyzer is the streamconst checker.
var Analyzer = &lint.Analyzer{
	Name: "streamconst",
	Doc:  "require named Stream* constants in Key.Cell calls, flag (stream, shape) reuse across call sites, and seed every RNG from a cell word",
	Run:  run,
}

// site is one Key.Cell construction.
type site struct {
	pos    token.Pos
	stream string
	shape  string
}

func run(pass *lint.Pass) error {
	canon := pass.Canonical()
	if !pass.InModule() || canon == lint.RNGPath {
		return nil
	}
	checkReseeds(pass)
	if !lint.Deterministic(canon) {
		return nil
	}
	ann := pass.Annotations()
	first := make(map[string]site) // (stream|shape) -> first construction

	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok || !lint.KeyCellCall(pass.TypesInfo, call) || len(call.Args) != 2 {
				return true
			}
			stream, named := namedStream(pass.TypesInfo, call.Args[0])
			if !named {
				if isConst(pass.TypesInfo, call.Args[0]) {
					pass.Reportf(call.Args[0].Pos(), "Key.Cell stream argument %s is not a named rng.Stream* constant: literal streams are unregistered and collide silently", types.ExprString(call.Args[0]))
				}
				// A variable of type Stream is legal (generic plumbing);
				// collision tracking needs the constant, so stop here.
				return true
			}
			s := site{pos: call.Pos(), stream: stream, shape: shapeOf(call, stack)}
			key := s.stream + "|" + s.shape
			if prev, dup := first[key]; dup {
				if !ann.Has(s.pos, lint.AnnotStreamOK) && !ann.Has(prev.pos, lint.AnnotStreamOK) {
					pass.Reportf(s.pos, "Key.Cell reuses (rng.%s, shape %q) already constructed at %s: the two sites address overlapping draws; use a distinct stream or round, or annotate //breathe:stream-ok <why the sites are mutually exclusive>", s.stream, s.shape, short(pass.Position(prev.pos)))
				}
			} else {
				first[key] = s
			}
			return true
		})
	}
	return nil
}

// checkReseeds reports every RNG.Reseed in a non-test file whose
// argument is not a Cell.Uint64 call.
func checkReseeds(pass *lint.Pass) {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !lint.RNGMethodCall(pass.TypesInfo, call, "RNG", "Reseed") || len(call.Args) != 1 {
				return true
			}
			if arg, ok := lint.Unparen(call.Args[0]).(*ast.CallExpr); ok && lint.RNGMethodCall(pass.TypesInfo, arg, "Cell", "Uint64") {
				return true
			}
			pass.Reportf(call.Args[0].Pos(), "RNG.Reseed seeds from %s, not a Cell.Uint64 word: a generator seeded otherwise is a sequential stream outside the keyed schedule", types.ExprString(call.Args[0]))
			return true
		})
	}
}

// namedStream reports whether e denotes a constant named Stream*
// declared in the rng package.
func namedStream(info *types.Info, e ast.Expr) (string, bool) {
	var obj types.Object
	switch v := lint.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.Uses[v]
	case *ast.SelectorExpr:
		obj = info.Uses[v.Sel]
	default:
		return "", false
	}
	c, ok := obj.(*types.Const)
	if !ok || c.Pkg() == nil || c.Pkg().Path() != lint.RNGPath || !strings.HasPrefix(c.Name(), "Stream") {
		return "", false
	}
	return c.Name(), true
}

// isConst reports whether e is a compile-time constant (the flaggable
// case: a literal or a conversion of one; variables pass through).
func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// shapeOf fingerprints how a construction addresses the schedule: the
// normalized receiver (which Key), the normalized round expression, and
// any immediately chained derivation (.Sub). Identifier names collapse
// to "_" — renaming a loop variable must not hide a collision — while
// structure (conversions, arithmetic, literals, field paths) is kept.
func shapeOf(call *ast.CallExpr, stack []ast.Node) string {
	recv := "_"
	if sel, ok := lint.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recv = normExpr(sel.X)
	}
	shape := recv + "|" + normExpr(call.Args[1])
	// A directly chained method call (x.Cell(s, r).Sub(j)…) addresses a
	// different cell family than the bare construction; record the chain.
	for i := len(stack) - 2; i >= 0; i-- {
		sel, ok := stack[i].(*ast.SelectorExpr)
		if !ok {
			break
		}
		shape += "." + sel.Sel.Name
		if i == 0 {
			break
		}
		if _, ok := stack[i-1].(*ast.CallExpr); !ok {
			break
		}
		i--
	}
	return shape
}

// normExpr renders an expression with every identifier replaced by "_"
// but selectors' field names, literals, conversions and operators kept.
func normExpr(e ast.Expr) string {
	switch v := lint.Unparen(e).(type) {
	case *ast.Ident:
		return "_"
	case *ast.SelectorExpr:
		return normExpr(v.X) + "." + v.Sel.Name
	case *ast.BasicLit:
		return v.Value
	case *ast.CallExpr:
		args := make([]string, len(v.Args))
		for i, a := range v.Args {
			args[i] = normExpr(a)
		}
		return callName(v.Fun) + "(" + strings.Join(args, ",") + ")"
	case *ast.BinaryExpr:
		return normExpr(v.X) + v.Op.String() + normExpr(v.Y)
	case *ast.UnaryExpr:
		return v.Op.String() + normExpr(v.X)
	case *ast.IndexExpr:
		return normExpr(v.X) + "[" + normExpr(v.Index) + "]"
	default:
		return "?"
	}
}

// callName renders the function position of a call/conversion by name
// (uint64, rng.Stream) rather than collapsing it: converting through a
// different type is a different shape.
func callName(fun ast.Expr) string {
	switch v := lint.Unparen(fun).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return callName(v.X) + "." + v.Sel.Name
	default:
		return "?"
	}
}

func short(p token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
