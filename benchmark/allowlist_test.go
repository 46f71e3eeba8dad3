package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// TestNoReferenceToAPIBeingRemoved keeps the benchmark off the parts of
// the program ROADMAP's "collapse run execution to one path" item
// deletes or reshapes, so the PRs that do it never have to edit
// benchmark files (a change that claims a gain may not). Guided and
// per-tier behaviour is reached through core.Options and the
// obs.Default counters by name only.
func TestNoReferenceToAPIBeingRemoved(t *testing.T) {
	// Names that may not appear as a selected field or method, a struct
	// literal key, or a bare identifier.
	banned := map[string]bool{
		"NoClone": true, "NoSnapshots": true, "SkipAccesses": true, "Lean": true,
		"GuidedCampaign": true, "GuidedPoints": true, "FullObservation": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no benchmark sources found: %v", err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if banned[n.Name] {
					t.Errorf("%s: reference to %s", fset.Position(n.Pos()), n.Name)
				}
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "dslog" && n.Sel.Name == "Discard" {
					t.Errorf("%s: reference to dslog.Discard", fset.Position(n.Pos()))
				}
			case *ast.AssignStmt:
				// Tester.Snapshots = nil selects the full-replay tier.
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Snapshots" || i >= len(n.Rhs) {
						continue
					}
					if id, ok := n.Rhs[i].(*ast.Ident); ok && id.Name == "nil" {
						t.Errorf("%s: Snapshots = nil used as a tier selector", fset.Position(n.Pos()))
					}
				}
			}
			return true
		})
	}
}
