package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// Later changes may not edit the benchmark, so it must not lean on anything
// the roadmap deletes: the pre-session evaluation API, the materialized and
// tuple-at-a-time operator functions, the naive oracle, and internal/bench.
// This test parses the benchmark's own sources and fails on any such
// reference, so those deletions never have to touch this directory.
func TestImportSurface(t *testing.T) {
	const module = "github.com/probdb/urm"
	allowedInternal := map[string]bool{
		module + "/internal/engine":  true,
		module + "/internal/datagen": true,
	}
	forbiddenFacade := map[string]bool{
		"NewEvaluator": true, "Evaluate": true, "EvaluateContext": true,
		"EvaluateTopK": true, "EvaluateTopKContext": true, "Evaluator": true, "Options": true,
	}
	forbiddenEngine := map[string]bool{
		"Select": true, "Project": true, "Product": true, "Aggregate": true, "Distinct": true, "HashJoin": true,
		"RowSource": true, "Materialize": true,
	}
	forbiddenEnginePrefix := []string{"Indexed", "Naive"}

	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			files++
			local := map[string]string{} // local package name -> import path
			for _, imp := range file.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if strings.HasPrefix(path, module+"/") && !allowedInternal[path] {
					t.Errorf("%s imports %s: only the urm facade, internal/engine and internal/datagen are allowed", name, path)
				}
				base := path[strings.LastIndex(path, "/")+1:]
				if imp.Name != nil {
					base = imp.Name.Name
				}
				local[base] = path
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				where := fset.Position(sel.Pos())
				// Scenario.Evaluator() is a method: forbidden on any receiver.
				if sel.Sel.Name == "Evaluator" {
					t.Errorf("%s: reference to .Evaluator, which the roadmap deletes", where)
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				switch local[id.Name] {
				case module:
					if forbiddenFacade[sel.Sel.Name] {
						t.Errorf("%s: urm.%s is part of the deprecated pre-session API", where, sel.Sel.Name)
					}
				case module + "/internal/engine":
					bad := forbiddenEngine[sel.Sel.Name]
					for _, p := range forbiddenEnginePrefix {
						bad = bad || strings.HasPrefix(sel.Sel.Name, p)
					}
					if bad {
						t.Errorf("%s: engine.%s is an operator function the roadmap deletes; build a plan and run it through Executor.ExecuteContext", where, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	if files < 5 {
		t.Fatalf("parsed only %d files: the guard is not looking at the benchmark", files)
	}
}
