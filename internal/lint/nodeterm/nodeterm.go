// Package nodeterm forbids nondeterminism sources — time.Now/Since/Until and
// anything from math/rand — in the hot-path packages, outside functions
// annotated `//mmqjp:nondet <reason>`. The allowlisted sites are the
// wall-clock stats timers (output-invisible); the annotation forces every
// new site to state why its nondeterminism cannot reach the output.
package nodeterm

import (
	"fmt"
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// Config scopes enforcement by package import path.
type Config struct {
	Enforce func(pkgPath string) bool
}

type analyzer struct{ cfg Config }

// New returns the nodeterm analyzer.
func New(cfg Config) lint.Analyzer { return analyzer{cfg} }

func (analyzer) Name() string { return "nodeterm" }

func (a analyzer) Run(prog *lint.Program) []lint.Diagnostic {
	var diags []lint.Diagnostic
	for _, pkg := range prog.Pkgs {
		if a.cfg.Enforce != nil && !a.cfg.Enforce(pkg.Path) {
			continue
		}
		dirs := prog.DirectivesFor(pkg)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || !nondeterministic(fn) {
					return true
				}
				units := lint.UnitsEnclosing(file, sel.Sel.Pos())
				if _, ok := dirs.UnitDirective(units, "nondet"); ok {
					return true
				}
				diags = append(diags, lint.Diagnostic{
					Pos:      prog.Fset.Position(sel.Sel.Pos()),
					Analyzer: "nodeterm",
					Message: fmt.Sprintf("%s.%s is a nondeterminism source: annotate the enclosing function with %snondet <reason> or keep it out of the hot path",
						fn.Pkg().Path(), fn.Name(), lint.DirectivePrefix),
				})
				return true
			})
		}
	}
	return diags
}

// nondeterministic reports whether fn is a forbidden source: the wall clock
// or any function/method of math/rand.
func nondeterministic(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return true
		}
	case "math/rand", "math/rand/v2":
		return true
	}
	return false
}
