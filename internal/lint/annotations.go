package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Annotation names. An annotation is a comment of the form
// "//breathe:<name> <reason>"; the reason is free text, read by humans,
// but the analyzers insist it is present — an unexplained suppression
// is itself a diagnostic.
const (
	// AnnotDrawFree marks a function whose contract is to perform no
	// RNG draws on any path; the drawfree analyzer proves it over the
	// static callgraph.
	AnnotDrawFree = "drawfree"
	// AnnotOrderOK marks a map range statement whose effect is
	// independent of iteration order (e.g. a map-to-map copy).
	AnnotOrderOK = "order-ok"
	// AnnotWalltimeOK marks a wall-clock read that measures performance
	// only and cannot reach canonical bytes (benchmark timing).
	AnnotWalltimeOK = "walltime-ok"
	// AnnotStreamOK marks a keyed-cell construction that deliberately
	// shares a (stream, addressing-shape) pair with another call site —
	// legal only when the two sites are mutually exclusive at runtime.
	AnnotStreamOK = "stream-ok"
	// AnnotLeaf marks a kernel loop function whose common path must stay
	// call-free so its loop state stays in registers; the leafloop
	// analyzer checks its body.
	AnnotLeaf = "leaf"
)

const annotPrefix = "breathe:"

// Annotations indexes the //breathe:* comments of a package by file and
// line, so analyzers can ask whether a node's line (or the line
// immediately above it, for own-line comments) carries a given marker.
type Annotations struct {
	fset *token.FileSet
	// byLine maps "filename:line" to the annotation names ending there.
	byLine map[string][]annot
}

type annot struct {
	name   string
	reason string
}

// NewAnnotations scans the comments of files for breathe annotations.
func NewAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{fset: fset, byLine: make(map[string][]annot)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, annotPrefix) {
					continue
				}
				body := strings.TrimPrefix(text, annotPrefix)
				name, reason, _ := strings.Cut(body, " ")
				pos := fset.Position(c.End())
				key := lineKey(pos.Filename, pos.Line)
				a.byLine[key] = append(a.byLine[key], annot{name: name, reason: strings.TrimSpace(reason)})
			}
		}
	}
	return a
}

func lineKey(file string, line int) string {
	// Line numbers are small; avoid fmt in the hot path.
	return file + ":" + itoa(line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// At reports whether the line holding pos, or the line immediately
// above it, carries the named annotation, and returns its reason.
func (a *Annotations) At(pos token.Pos, name string) (reason string, ok bool) {
	p := a.fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, an := range a.byLine[lineKey(p.Filename, line)] {
			if an.name == name {
				return an.reason, true
			}
		}
	}
	return "", false
}

// Has is At without the reason.
func (a *Annotations) Has(pos token.Pos, name string) bool {
	_, ok := a.At(pos, name)
	return ok
}

// DocHas reports whether a declaration's doc comment group carries the
// named annotation (the form used for function-level contracts, where
// the marker lives inside the doc block rather than on the line above
// the declaration).
func DocHas(doc *ast.CommentGroup, name string) bool {
	_, ok := DocAt(doc, name)
	return ok
}

// DocAt is DocHas with the annotation's reason.
func DocAt(doc *ast.CommentGroup, name string) (reason string, ok bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, found := strings.CutPrefix(text, annotPrefix+name); found {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}
