package planarcert_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// docCheckedDirs are the packages whose exported surface must be fully
// documented: the public API plus the architectural core named in
// ARCHITECTURE.md. CI runs this test as the missing-doc-comment lint
// gate.
var docCheckedDirs = []string{
	".",
	"internal/buildinfo",
	"internal/core",
	"internal/dist",
	"internal/dynamic",
	"internal/graph",
	"internal/obs",
	"internal/qos",
	"internal/report",
	"internal/server",
	"internal/wal",
	"internal/wire",
}

// TestDocComments is the repo's missing-godoc lint: every exported
// top-level declaration (type, func, method, const/var group) in the
// checked packages needs a doc comment, and every checked package needs
// a package comment.
func TestDocComments(t *testing.T) {
	for _, dir := range docCheckedDirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			hasPkgDoc := false
			var missing []string
			for fname, file := range pkg.Files {
				if file.Doc != nil {
					hasPkgDoc = true
				}
				for _, decl := range file.Decls {
					for _, m := range undocumented(decl) {
						missing = append(missing, fmt.Sprintf("%s: %s", fname, m))
					}
				}
			}
			if !hasPkgDoc {
				t.Errorf("package %s (%s) has no package comment", pkg.Name, dir)
			}
			for _, m := range missing {
				t.Errorf("missing doc comment: %s", m)
			}
		}
	}
}

// undocumented returns descriptions of the exported symbols of one
// top-level declaration that lack a doc comment. A documented
// const/var/type group covers its members (idiomatic for enums and
// option groups).
func undocumented(decl ast.Decl) []string {
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		if receiverUnexported(d) {
			return nil // methods of unexported types are internal detail
		}
		if d.Doc == nil {
			out = append(out, "func "+d.Name.Name)
		}
	case *ast.GenDecl:
		if d.Doc != nil {
			return nil // group comment covers the members
		}
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
					out = append(out, "type "+s.Name.Name)
				}
			case *ast.ValueSpec:
				if s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, name := range s.Names {
					if name.IsExported() {
						out = append(out, fmt.Sprintf("%s %s", d.Tok, name.Name))
					}
				}
			}
		}
	}
	return out
}

// receiverUnexported reports whether fn is a method on an unexported
// receiver type.
func receiverUnexported(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	t := fn.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return !tt.IsExported()
		default:
			return false
		}
	}
}
