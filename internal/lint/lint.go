// Package lint is the framework behind cmd/mmqjplint: a zero-dependency
// static-analysis suite that turns the repo's prose invariants ("callers must
// hold e.mu", "pooled objects are emptied before reuse", "iteration order
// must not reach the output") into machine-checked rules. It loads and type-checks the
// module's packages with the standard library only (go/parser + go/types with
// a source importer), parses //mmqjp: directives out of the comments, and
// hands both to the analyzer packages under internal/lint/.
//
// See DESIGN.md "Static invariants" for the directive grammar and what each
// analyzer guarantees.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding, positioned in the linted source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one type-checked package of the linted program.
type Package struct {
	Path  string // import path ("repro/internal/core")
	Dir   string // directory the files were parsed from
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	dirs *Directives // lazily built by Program.DirectivesFor
}

// Program is the unit analyzers run on: every package of the lint target,
// sharing one FileSet and one type-checker universe.
type Program struct {
	Fset *token.FileSet
	// Pkgs lists the packages to lint in load (dependency) order.
	Pkgs []*Package
	// ByPath indexes Pkgs by import path.
	ByPath map[string]*Package
}

// Analyzer is one invariant checker.
type Analyzer interface {
	Name() string
	Run(prog *Program) []Diagnostic
}

// DirectivesFor returns pkg's directive index, building it on first use.
// Linting is single-threaded; the cache is not synchronized.
func (p *Program) DirectivesFor(pkg *Package) *Directives {
	if pkg.dirs == nil {
		pkg.dirs = CollectDirectives(p.Fset, pkg)
	}
	return pkg.dirs
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer — the
// stable order golden files and CLI output use.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Run executes every analyzer on prog, prepends the framework's own directive
// validation (unknown names, missing arguments), and returns the combined
// diagnostics in stable order.
func Run(prog *Program, analyzers []Analyzer) []Diagnostic {
	diags := CheckDirectives(prog)
	for _, a := range analyzers {
		diags = append(diags, a.Run(prog)...)
	}
	SortDiagnostics(diags)
	return diags
}
