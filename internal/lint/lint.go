// Package lint is a self-contained static-analysis framework in the
// shape of golang.org/x/tools/go/analysis, built only on the standard
// library so the module stays dependency-free.
//
// The repository's determinism guarantees — per-agent ≡ batched ≡
// sharded bit-for-bit, cache hits byte-identical, sweeps resumable with
// zero recompute — rest on invariants that no Go type can express: every
// draw addressed through the right rng stream, no wall clock or map
// iteration order leaking into canonical bytes, and "draw-free" paths
// that really draw nothing. Each of those invariants has been violated
// once and debugged once (seed-parallel runner seeding, TransmitBulk at
// p = 0, …).
// The analyzers in the sub-packages make the whole class of bug
// unrepresentable: cmd/breathevet runs them over every package, in CI
// and as a `go vet -vettool`.
//
// An Analyzer here is a pure function over one type-checked package
// (a Pass). Cross-package reasoning — drawfree's transitive callgraph —
// flows through per-package facts: JSON blobs exported by the pass that
// analyzed a dependency and imported by its dependents, mirroring
// go/analysis facts closely enough that the suite could be rebased onto
// x/tools mechanically if the dependency ever becomes available.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one invariant checker. The Run function inspects a single
// type-checked package and reports diagnostics through the pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and fact files.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer

	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the parsed source files of the package, in build order.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's fact maps for Files.
	TypesInfo *types.Info

	// ImportPath is the path as listed by the build system; test
	// variants carry a " [pkg.test]" suffix and external test packages a
	// "_test" suffix. Use Canonical for scope decisions.
	ImportPath string
	// Module is the module path ("breathe"); packages outside it are
	// third-party or standard library and are never analyzed.
	Module string

	// Report delivers one diagnostic.
	Report func(Diagnostic)

	// facts is the driver's store; nil when the driver provides none
	// (fact import then always misses, fact export is dropped).
	facts *FactStore

	ann *Annotations
}

// Canonical strips the test-variant decorations from ImportPath: the
// " [pkg.test]" suffix of an in-package test build and the "_test"
// suffix of an external test package, so scope rules treat a package
// and its test builds alike.
func (p *Pass) Canonical() string { return CanonicalPath(p.ImportPath) }

// CanonicalPath is Canonical for a raw import path.
func CanonicalPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return strings.TrimSuffix(path, "_test")
}

// InModule reports whether the pass's package belongs to the analyzed
// module.
func (p *Pass) InModule() bool {
	return p.Module != "" && (p.ImportPath == p.Module || strings.HasPrefix(p.ImportPath, p.Module+"/"))
}

// Annotations returns the lazily built //breathe:* annotation index for
// the pass's files.
func (p *Pass) Annotations() *Annotations {
	if p.ann == nil {
		p.ann = NewAnnotations(p.Fset, p.Files)
	}
	return p.ann
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Position resolves a token.Pos against the pass's file set.
func (p *Pass) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }
