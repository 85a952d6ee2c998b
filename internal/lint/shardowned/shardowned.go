// Package shardowned enforces the single-owner discipline of the Stage-2
// template shards: a field annotated `//mmqjp:shardowned` may only be
// accessed from a method whose receiver is the owning struct (the evaluating
// shard touching its own state) or from a function annotated
// `//mmqjp:shardaccess <reason>` — the allowlist for the protocols that may
// legitimately cross the ownership line: quiesced registration on the
// processor and stats collection at a barrier. The reason argument is
// mandatory, so every crossing documents why it is safe.
package shardowned

import (
	"fmt"
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

type analyzer struct{}

// New returns the shardowned analyzer.
func New() lint.Analyzer { return analyzer{} }

func (analyzer) Name() string { return "shardowned" }

func (a analyzer) Run(prog *lint.Program) []lint.Diagnostic {
	owned := map[*types.Var]bool{}
	for _, pkg := range prog.Pkgs {
		dirs := prog.DirectivesFor(pkg)
		for v, ds := range dirs.Fields {
			for _, d := range ds {
				if d.Name == "shardowned" {
					owned[v] = true
				}
			}
		}
	}
	if len(owned) == 0 {
		return nil
	}

	var diags []lint.Diagnostic
	for _, pkg := range prog.Pkgs {
		dirs := prog.DirectivesFor(pkg)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				field, ok := pkg.Info.Uses[sel.Sel].(*types.Var)
				if !ok || !owned[field] {
					return true
				}
				if justified(file, sel, field, pkg, dirs) {
					return true
				}
				diags = append(diags, lint.Diagnostic{
					Pos:      prog.Fset.Position(sel.Sel.Pos()),
					Analyzer: "shardowned",
					Message: fmt.Sprintf("field %s is shard-owned: access it from an owner-receiver method or annotate the function with %sshardaccess <reason>",
						field.Name(), lint.DirectivePrefix),
				})
				return true
			})
		}
	}
	return diags
}

// justified reports whether the access is from a method of the owning struct
// or under a shardaccess annotation on any enclosing function unit.
func justified(file *ast.File, sel *ast.SelectorExpr, field *types.Var, pkg *lint.Package, dirs *lint.Directives) bool {
	units := lint.UnitsEnclosing(file, sel.Sel.Pos())
	if _, ok := dirs.UnitDirective(units, "shardaccess"); ok {
		return true
	}
	for _, u := range units {
		fd, ok := u.(*ast.FuncDecl)
		if !ok || fd.Recv == nil {
			continue
		}
		fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv != nil && ownsField(recv.Type(), field) {
			return true
		}
	}
	return false
}

// ownsField reports whether recvType (possibly a pointer) is the struct that
// declares field.
func ownsField(recvType types.Type, field *types.Var) bool {
	if ptr, ok := recvType.Underlying().(*types.Pointer); ok {
		recvType = ptr.Elem()
	}
	st, ok := recvType.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == field {
			return true
		}
	}
	return false
}
