package ting

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// maxFuncLines is the longest a non-test function in this package may be,
// counted from its func keyword to its closing brace.
const maxFuncLines = 150

// TestNoFunctionOverLimit keeps the scan engine from regrowing into one
// function: Scanner.run was 795 lines of closures over shared locals before
// it became the scan type's methods.
func TestNoFunctionOverLimit(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for path, file := range pkg.Files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				lines := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
				if lines > maxFuncLines {
					t.Errorf("%s: %s is %d lines, limit %d", path, fn.Name.Name, lines, maxFuncLines)
				}
			}
		}
	}
}
