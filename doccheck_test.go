package dut

// A documentation quality gate: every exported identifier in every library
// package must carry a doc comment. This keeps the "doc comments on every
// public item" deliverable enforced by CI rather than by review.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// minDocCheckedFiles is a floor on the files the walk must parse: far
// fewer means it skipped most of the tree and checked nothing.
const minDocCheckedFiles = 100

func TestAllExportedIdentifiersDocumented(t *testing.T) {
	var missing []string
	parsed, sawFacade := 0, false
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// The walk root "." is the module itself, not a hidden directory.
			name := d.Name()
			if path != "." && (name == "examples" || name == "results" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		parsed++
		sawFacade = sawFacade || path == "dut.go"
		for _, decl := range file.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				if dd.Name.IsExported() && dd.Doc == nil {
					missing = append(missing, path+": func "+dd.Name.Name)
				}
			case *ast.GenDecl:
				groupDocumented := dd.Doc != nil
				for _, spec := range dd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && !groupDocumented && sp.Doc == nil && sp.Comment == nil {
							missing = append(missing, path+": type "+sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							if name.IsExported() && !groupDocumented && sp.Doc == nil && sp.Comment == nil {
								missing = append(missing, path+": value "+name.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawFacade || parsed < minDocCheckedFiles {
		t.Fatalf("the walk parsed %d files (dut.go among them: %v), want dut.go and at least %d", parsed, sawFacade, minDocCheckedFiles)
	}
	for _, m := range missing {
		t.Errorf("exported identifier without doc comment: %s", m)
	}
}
