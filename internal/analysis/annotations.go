package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Two marker annotations steer the analyzers:
//
//   //xnuma:noalloc   — on a function's doc comment: the function is on
//     the epoch hot path and must not contain allocation forms. Checked
//     by the noalloc analyzer; coverage of the (*Runner).epoch call
//     graph is asserted by TestEpochHotPathAnnotated.
//   //xnuma:scratch   — on a struct field or variable declaration: the
//     slice is a reusable scratch buffer, so `append` onto it inside a
//     noalloc function is amortized growth, not a per-call allocation.

const noallocMarker = "//xnuma:noalloc"
const scratchMarker = "//xnuma:scratch"

// HasNoallocAnnotation reports whether fn's doc comment carries the
// //xnuma:noalloc marker.
func HasNoallocAnnotation(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if isMarker(c.Text, noallocMarker) {
			return true
		}
	}
	return false
}

// isMarker reports whether the comment text is the marker, optionally
// followed by explanatory text after a space.
func isMarker(text, marker string) bool {
	return text == marker || strings.HasPrefix(text, marker+" ")
}

// scratchLines collects, per file, the line numbers carrying a
// //xnuma:scratch marker. A declaration on line L is scratch-annotated
// if a marker sits on L (trailing) or L-1 (the line above).
func scratchLines(fset *token.FileSet, files []*ast.File) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !isMarker(c.Text, scratchMarker) {
					continue
				}
				pos := fset.Position(c.Pos())
				m := out[pos.Filename]
				if m == nil {
					m = map[int]bool{}
					out[pos.Filename] = m
				}
				m[pos.Line] = true
			}
		}
	}
	return out
}

// scratchAnnotated reports whether the object declared at declPos is
// covered by a //xnuma:scratch marker.
func scratchAnnotated(fset *token.FileSet, lines map[string]map[int]bool, declPos token.Pos) bool {
	if !declPos.IsValid() {
		return false
	}
	pos := fset.Position(declPos)
	m := lines[pos.Filename]
	return m != nil && (m[pos.Line] || m[pos.Line-1])
}
