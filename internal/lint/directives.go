package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DirectivePrefix introduces a machine-readable annotation. Like //go:
// directives, an annotation is a single comment line with no space after //.
const DirectivePrefix = "//mmqjp:"

// DirectiveSpec describes one directive of the annotation grammar. The table
// below is the single source of truth: the analyzers consume the directives
// and cmd/docscheck validates every //mmqjp: line quoted in the markdown
// guides against it, so docs and analyzers cannot drift.
type DirectiveSpec struct {
	Name string
	Arg  string // placeholder shown in docs for the required argument
	Doc  string // one-line summary
}

// Grammar lists every valid directive, in documentation order.
var Grammar = []DirectiveSpec{
	{
		Name: "unordered", Arg: "<reason>",
		Doc: "this map iteration is intentionally order-insensitive; <reason> says why (mapiter)",
	},
	{
		Name: "guardedby", Arg: "<recv>.<mutex>",
		Doc: "field: protected by the named mutex; func: callers must hold it (guarded)",
	},
	{
		Name: "nondet", Arg: "<reason>",
		Doc: "function allowed to use time.Now/math/rand; <reason> says why output is unaffected (nodeterm)",
	},
	{
		Name: "nolock", Arg: "<reason>",
		Doc: "function exempt from guarded checks; <reason> states why access is exclusive (guarded)",
	},
	{
		Name: "pooled", Arg: "<reason>",
		Doc: "sync.Pool declaration; <reason> argues pooled objects are reset on reuse and never escape (pooled)",
	},
}

// SpecFor returns the grammar entry for a directive name.
func SpecFor(name string) (DirectiveSpec, bool) {
	for _, s := range Grammar {
		if s.Name == name {
			return s, true
		}
	}
	return DirectiveSpec{}, false
}

// Directive is one parsed //mmqjp: annotation.
type Directive struct {
	Name string
	Arg  string
	Pos  token.Pos
}

// ParseDirectiveText validates one comment line against the grammar. text
// must start with //mmqjp: (callers filter). It is shared with cmd/docscheck,
// which runs it over directive lines quoted in the markdown guides.
func ParseDirectiveText(text string) (name, arg string, err error) {
	rest := strings.TrimPrefix(text, DirectivePrefix)
	if rest == text {
		return "", "", fmt.Errorf("not a %s directive: %q", DirectivePrefix, text)
	}
	name, arg, _ = strings.Cut(rest, " ")
	arg = strings.TrimSpace(arg)
	if name == "" || strings.ContainsAny(name, " \t") {
		return "", "", fmt.Errorf("malformed directive %q: want %s<name> [arg]", text, DirectivePrefix)
	}
	spec, ok := SpecFor(name)
	if !ok {
		return "", "", fmt.Errorf("unknown directive %smmqjp:%s", "//", name)
	}
	if arg == "" {
		return "", "", fmt.Errorf("directive %s%s requires an argument: %s", DirectivePrefix, name, spec.Arg)
	}
	return name, arg, nil
}

// Directives indexes every annotation of one package by what it attaches to.
type Directives struct {
	// Fields maps struct-field objects to their annotations (from the
	// field's doc or trailing line comment).
	Fields map[*types.Var][]Directive
	// Funcs maps declared functions to annotations in their doc comment.
	Funcs map[*types.Func][]Directive
	// Units maps function units — *ast.FuncDecl (doc annotations) and
	// *ast.FuncLit (annotations written inside the literal's body) — to their
	// annotations. A directive inside a nested literal annotates the
	// innermost literal only.
	Units map[ast.Node][]Directive
	// ByLine maps filename -> comment line -> directives on that line, for
	// statement-level attachment (a directive annotates the statement on the
	// same line or the line below it).
	ByLine map[string]map[int][]Directive
}

// CollectDirectives builds the package's directive index. Malformed
// directives are skipped here; CheckDirectives reports them.
func CollectDirectives(fset *token.FileSet, pkg *Package) *Directives {
	d := &Directives{
		Fields: map[*types.Var][]Directive{},
		Funcs:  map[*types.Func][]Directive{},
		Units:  map[ast.Node][]Directive{},
		ByLine: map[string]map[int][]Directive{},
	}
	for _, file := range pkg.Files {
		consumed := map[token.Pos]bool{}

		// Field annotations: doc and trailing comments of struct fields.
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				dirs := directivesInGroups(consumed, field.Doc, field.Comment)
				if len(dirs) == 0 {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
						d.Fields[v] = append(d.Fields[v], dirs...)
					}
				}
			}
			return true
		})

		// Function annotations: FuncDecl doc comments.
		var units []ast.Node
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			units = append(units, fd)
			dirs := directivesInGroups(consumed, fd.Doc)
			if len(dirs) == 0 {
				continue
			}
			d.Units[fd] = append(d.Units[fd], dirs...)
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				d.Funcs[fn] = append(d.Funcs[fn], dirs...)
			}
		}

		// Remaining directives: index by line, and attach those inside a
		// function literal's body to the innermost literal.
		fname := fset.Position(file.Pos()).Filename
		for _, group := range file.Comments {
			for _, c := range group.List {
				dir, ok := parseComment(c)
				if !ok {
					continue
				}
				line := fset.Position(c.Pos()).Line
				if d.ByLine[fname] == nil {
					d.ByLine[fname] = map[int][]Directive{}
				}
				d.ByLine[fname][line] = append(d.ByLine[fname][line], dir)
				if consumed[c.Pos()] {
					continue
				}
				if lit := innermostFuncLit(file, c.Pos()); lit != nil {
					d.Units[lit] = append(d.Units[lit], dir)
				}
			}
		}
	}
	return d
}

// directivesInGroups parses the directives of the given comment groups and
// marks them consumed so they are not re-attached as unit annotations.
func directivesInGroups(consumed map[token.Pos]bool, groups ...*ast.CommentGroup) []Directive {
	var out []Directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if dir, ok := parseComment(c); ok {
				out = append(out, dir)
				consumed[c.Pos()] = true
			}
		}
	}
	return out
}

func parseComment(c *ast.Comment) (Directive, bool) {
	if !strings.HasPrefix(c.Text, DirectivePrefix) {
		return Directive{}, false
	}
	name, arg, err := ParseDirectiveText(c.Text)
	if err != nil {
		return Directive{}, false
	}
	return Directive{Name: name, Arg: arg, Pos: c.Pos()}, true
}

// innermostFuncLit returns the smallest function literal whose body span
// contains pos, or nil.
func innermostFuncLit(file *ast.File, pos token.Pos) *ast.FuncLit {
	var best *ast.FuncLit
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		if lit.Body != nil && lit.Body.Pos() <= pos && pos < lit.Body.End() {
			if best == nil || (lit.Body.End()-lit.Body.Pos()) < (best.Body.End()-best.Body.Pos()) {
				best = lit
			}
		}
		return true
	})
	return best
}

// At returns the directives named name attached at line (same line or the
// line above) in file fname — the statement-attachment rule.
func (d *Directives) At(fname string, line int, name string) (Directive, bool) {
	for _, l := range [2]int{line, line - 1} {
		for _, dir := range d.ByLine[fname][l] {
			if dir.Name == name {
				return dir, true
			}
		}
	}
	return Directive{}, false
}

// UnitDirective returns the first directive named name on any of units
// (ordered innermost first).
func (d *Directives) UnitDirective(units []ast.Node, name string) (Directive, bool) {
	for _, u := range units {
		for _, dir := range d.Units[u] {
			if dir.Name == name {
				return dir, true
			}
		}
	}
	return Directive{}, false
}

// CheckDirectives validates every //mmqjp: comment in the program against the
// grammar: unknown names and missing arguments.
func CheckDirectives(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					if !strings.HasPrefix(c.Text, DirectivePrefix) {
						continue
					}
					if _, _, err := ParseDirectiveText(c.Text); err != nil {
						diags = append(diags, Diagnostic{
							Pos:      prog.Fset.Position(c.Pos()),
							Analyzer: "directives",
							Message:  err.Error(),
						})
					}
				}
			}
		}
	}
	return diags
}
