package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive comments understood by the suite. All of them require a
// justification where noted; an unjustified directive is itself a
// finding, so the tree cannot silently accumulate opt-outs.
//
//	//dsm:wallclock <why>            file-level: this file legitimately
//	                                 reads the wall clock (detlint)
//	//dsm:hotpath                    function doc: hold this function to
//	                                 the zero-allocation rules (hotlint)
//	//dsm:nolint <analyzer>: <why>   line-level suppression, any analyzer
const (
	dirWallclock = "//dsm:wallclock"
	dirHotpath   = "//dsm:hotpath"
	dirNolint    = "//dsm:nolint"
)

// nolintDirective is one parsed //dsm:nolint comment.
type nolintDirective struct {
	analyzers []string // empty means "all analyzers"
	reason    string
	line      int
}

func (d *nolintDirective) covers(analyzer string) bool {
	if len(d.analyzers) == 0 {
		return true
	}
	for _, a := range d.analyzers {
		if a == analyzer {
			return true
		}
	}
	return false
}

// fileDirectives is the per-file directive set.
type fileDirectives struct {
	wallclock       bool
	wallclockReason string
	wallclockPos    token.Pos
	nolints         []*nolintDirective
}

// directiveIndex maps filenames to their parsed directives.
type directiveIndex struct {
	files map[string]*fileDirectives
}

// indexDirectives scans every comment of every file for dsm directives.
func indexDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{files: map[string]*fileDirectives{}}
	for _, f := range files {
		pos := fset.Position(f.Pos())
		fd := &fileDirectives{}
		idx.files[pos.Filename] = fd
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				switch {
				case strings.HasPrefix(text, dirWallclock):
					fd.wallclock = true
					fd.wallclockReason = strings.TrimSpace(text[len(dirWallclock):])
					fd.wallclockPos = c.Pos()
				case strings.HasPrefix(text, dirNolint):
					rest := strings.TrimSpace(text[len(dirNolint):])
					d := &nolintDirective{line: fset.Position(c.Pos()).Line}
					if name, reason, ok := strings.Cut(rest, ":"); ok {
						d.reason = strings.TrimSpace(reason)
						rest = name
					}
					for _, a := range strings.Split(rest, ",") {
						if a = strings.TrimSpace(a); a != "" {
							d.analyzers = append(d.analyzers, a)
						}
					}
					fd.nolints = append(fd.nolints, d)
				}
			}
		}
	}
	return idx
}

// nolintAt reports the nolint directive covering analyzer findings on
// position's line (same line or the line immediately above).
func (x *directiveIndex) nolintAt(pos token.Position, analyzer string) (*nolintDirective, bool) {
	fd := x.files[pos.Filename]
	if fd == nil {
		return nil, false
	}
	for _, d := range fd.nolints {
		if (d.line == pos.Line || d.line == pos.Line-1) && d.covers(analyzer) {
			return d, true
		}
	}
	return nil, false
}

// wallclockDirective reports the //dsm:wallclock directive of the file
// containing pos, if any.
func (x *directiveIndex) wallclockDirective(filename string) (*fileDirectives, bool) {
	fd := x.files[filename]
	if fd == nil || !fd.wallclock {
		return nil, false
	}
	return fd, true
}

// docHasDirective reports whether a doc comment group carries the given
// directive, returning its trailing text.
func docHasDirective(doc *ast.CommentGroup, directive string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, directive) {
			return strings.TrimSpace(c.Text[len(directive):]), true
		}
	}
	return "", false
}
