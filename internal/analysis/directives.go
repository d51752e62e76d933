package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Source directives recognized by the suite:
//
//	//ampvet:hotpath
//	    Marks the function whose doc comment contains it as a
//	    per-cycle hot path; hotpathalloc checks its body.
//
//	//ampvet:allow <check> <reason>
//	    Suppresses findings of <check> on the directive's line, the
//	    line below a standalone directive, or — when the directive
//	    sits in a function's doc comment — the whole function. The
//	    reason is mandatory; ampvet reports reason-less or unknown
//	    directives as findings of check "ampvet". When the full suite
//	    runs, an allow that suppressed no finding of its check is a
//	    stale exception and is reported the same way.
//
//	//ampvet:unit <dim>
//	//ampvet:unit <param> <dim>
//	    Declares the physical dimension of a named type, struct
//	    field or function result (first form), or of a named
//	    parameter when it appears in a function's doc comment
//	    (second form). unitcheck propagates the dimensions through
//	    expressions; see units.go for the dimension vocabulary.
//
// Any other //ampvet:<verb> spelling is a malformed directive: a
// misspelled marker that silently suppresses nothing is worse than a
// loud error.
//
// The loader reads only a package's non-test files, so directives in
// _test.go files are never parsed and suppress nothing.
const (
	directivePrefix = "//ampvet:"
	allowPrefix     = "//ampvet:allow"
	hotpathMarker   = "//ampvet:hotpath"
	unitPrefix      = "//ampvet:unit"
)

// lineRange is a file-scoped inclusive line span.
type lineRange struct {
	file       string
	start, end int
}

// allowDirective is one well-formed //ampvet:allow: the lines it
// covers, and whether a finding of its check fell inside them.
type allowDirective struct {
	check string
	pos   token.Position
	span  lineRange
	used  bool
}

// directiveIndex holds a package's parsed //ampvet: directives.
type directiveIndex struct {
	allows []*allowDirective
	// malformed collects invalid directives as findings.
	malformed []Diagnostic
}

// directiveDiag is a finding of check "ampvet" about the directive at
// pos.
func directiveDiag(pos token.Position, msg string) Diagnostic {
	return Diagnostic{
		Pos: pos, File: pos.Filename, Line: pos.Line,
		Column: pos.Column, Check: "ampvet", Message: msg,
	}
}

// indexDirectives scans every comment in the files.
func indexDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{}
	valid := map[string]bool{}
	for _, a := range All() {
		valid[a.Name] = true
	}
	for _, f := range files {
		// Map each doc comment to its function's line span so an
		// allow in the doc covers the whole body.
		funcSpan := map[*ast.CommentGroup]lineRange{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			funcSpan[fd.Doc] = lineRange{
				file:  fset.Position(fd.Pos()).Filename,
				start: fset.Position(fd.Pos()).Line,
				end:   fset.Position(fd.End()).Line,
			}
		}
		for _, cg := range f.Comments {
			span, inFuncDoc := funcSpan[cg]
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				bad := func(msg string) {
					idx.malformed = append(idx.malformed, directiveDiag(pos, msg))
				}
				switch {
				case strings.HasPrefix(text, allowPrefix):
					idx.indexAllow(text, pos, span, inFuncDoc, valid, bad)
				case strings.HasPrefix(text, unitPrefix):
					// Association with the tagged declaration happens in
					// units.go; here only the spelling is validated.
					validateUnitDirective(text, bad)
				case strings.HasPrefix(text, hotpathMarker):
					// Marker only; no arguments to validate.
				default:
					verb := strings.TrimPrefix(text, directivePrefix)
					if i := strings.IndexAny(verb, " \t"); i >= 0 {
						verb = verb[:i]
					}
					bad("unknown directive ampvet:" + verb +
						" (have ampvet:allow, ampvet:hotpath, ampvet:unit)")
				}
			}
		}
	}
	return idx
}

// indexAllow parses one //ampvet:allow directive into the index.
func (idx *directiveIndex) indexAllow(text string, pos token.Position, span lineRange, inFuncDoc bool, valid map[string]bool, bad func(string)) {
	fields := strings.Fields(strings.TrimPrefix(text, allowPrefix))
	if len(fields) == 0 {
		bad("ampvet:allow needs a check name and a reason")
		return
	}
	check := fields[0]
	if !valid[check] {
		bad("ampvet:allow names unknown check " + check + " (have " + checkNames() + ")")
		return
	}
	if len(fields) < 2 {
		bad("ampvet:allow " + check + " needs a reason — audited exceptions must say why")
		return
	}
	if !inFuncDoc {
		// The directive's own line and the next one: a trailing
		// comment allows its statement, a standalone comment allows
		// the line below it.
		span = lineRange{file: pos.Filename, start: pos.Line, end: pos.Line + 1}
	}
	idx.allows = append(idx.allows, &allowDirective{check: check, pos: pos, span: span})
}

// validateUnitDirective checks an //ampvet:unit spelling: one or two
// fields, the last of which must be a known dimension name.
func validateUnitDirective(text string, bad func(string)) {
	fields := strings.Fields(strings.TrimPrefix(text, unitPrefix))
	switch len(fields) {
	case 1, 2:
		dim := fields[len(fields)-1]
		if _, ok := parseDim(dim); !ok {
			bad("ampvet:unit names unknown dimension " + dim + " (have " + dimNames() + ")")
		}
	default:
		bad("ampvet:unit needs <dim> or <param> <dim>")
	}
}

// allowed reports whether a finding of check at position is covered by
// an allow directive, marking every covering directive used.
func (idx *directiveIndex) allowed(check string, pos token.Position) bool {
	if idx == nil {
		return false
	}
	covered := false
	for _, a := range idx.allows {
		r := a.span
		if a.check == check && r.file == pos.Filename && r.start <= pos.Line && pos.Line <= r.end {
			a.used = true
			covered = true
		}
	}
	return covered
}

// stale reports every allow that suppressed no finding of its check.
// It is meaningful only after every check of the suite has run.
func (idx *directiveIndex) stale() []Diagnostic {
	var out []Diagnostic
	for _, a := range idx.allows {
		if !a.used {
			out = append(out, directiveDiag(a.pos,
				"ampvet:allow "+a.check+" suppresses no finding; delete the stale exception"))
		}
	}
	return out
}

// isHotPath reports whether the function declaration carries the
// //ampvet:hotpath marker in its doc comment.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), hotpathMarker) {
			return true
		}
	}
	return false
}
