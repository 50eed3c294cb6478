// Package analysis is the minimal in-tree substitute for
// golang.org/x/tools/go/analysis: just enough framework to write
// project-specific analyzers (see package lint) and drive them from tests
// and cmd/hyperqlint. The repo vendors no third-party code, so the analyzer
// suite is built directly on go/ast and go/types.
//
// The shapes deliberately mirror the x/tools API (Analyzer, Pass,
// Diagnostic, Pass.Reportf) so the analyzers could be ported to a stock
// multichecker with mechanical edits if the dependency ever becomes
// available.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //hyperqlint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: the invariant the analyzer
	// encodes and why violating it is a bug.
	Doc string
	// Run reports diagnostics for one package unit via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package unit through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the unit's syntax trees (including _test.go files when the
	// unit is a test-augmented package).
	Files []*ast.File
	// Pkg and Info are the unit's type information.
	Pkg  *types.Package
	Info *types.Info
	// PkgPath is the unit's import path; test-augmented units keep the
	// package's own path, external test units carry the "_test" suffix.
	PkgPath string

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer *Analyzer
	Pos      token.Pos
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Position, d.Message, d.Analyzer.Name)
}

// Unit is the package shape Run consumes: one type-checked package. The
// go vet tool's compilation unit (cmd/hyperqlint) and the fixture packages of
// internal/lint/analysistest implement it.
type Unit interface {
	Syntax() []*ast.File
	TypesPkg() *types.Package
	TypesInfo() *types.Info
	Path() string
	FileSet() *token.FileSet
}

// Run applies the analyzers to one unit and returns the surviving
// diagnostics: findings suppressed by a //hyperqlint:ignore directive are
// dropped, everything else is sorted by position.
func Run(u Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     u.FileSet(),
			Files:    u.Syntax(),
			Pkg:      u.TypesPkg(),
			Info:     u.TypesInfo(),
			PkgPath:  u.Path(),
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, u.Path(), err)
		}
	}
	diags = filterIgnored(u, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer.Name < diags[j].Analyzer.Name
	})
	return diags, nil
}

// filterIgnored drops diagnostics covered by an ignore directive. A
// directive of the form
//
//	//hyperqlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// suppresses matching diagnostics on its own line (end-of-line style) and on
// the line directly below it (standalone comment above the offending
// statement). The reason is mandatory: a suppression without a recorded
// justification is itself a diagnostic, so every deviation from an invariant
// stays auditable.
func filterIgnored(u Unit, diags []Diagnostic) []Diagnostic {
	fset := u.FileSet()
	// suppressed maps file -> line -> set of analyzer names.
	suppressed := make(map[string]map[int]map[string]bool)
	var out []Diagnostic
	for _, f := range u.Syntax() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, reason, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if reason == "" {
					out = append(out, Diagnostic{
						Analyzer: directiveAnalyzer,
						Pos:      c.Pos(),
						Position: pos,
						Message:  "hyperqlint:ignore directive needs a reason: //hyperqlint:ignore <analyzer> <why>",
					})
					continue
				}
				byLine := suppressed[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					suppressed[pos.Filename] = byLine
				}
				for _, ln := range []int{pos.Line, pos.Line + 1} {
					set := byLine[ln]
					if set == nil {
						set = make(map[string]bool)
						byLine[ln] = set
					}
					for _, n := range names {
						set[n] = true
					}
				}
			}
		}
	}
	for _, d := range diags {
		if set := suppressed[d.Position.Filename][d.Position.Line]; set[d.Analyzer.Name] || set["all"] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// directiveAnalyzer attributes diagnostics about malformed directives.
var directiveAnalyzer = &Analyzer{
	Name: "directive",
	Doc:  "reports malformed //hyperqlint:ignore directives (missing reason)",
}

// parseIgnore recognizes "//hyperqlint:ignore a,b reason...".
func parseIgnore(text string) (names []string, reason string, ok bool) {
	const prefix = "//hyperqlint:ignore"
	if !strings.HasPrefix(text, prefix) {
		return nil, "", false
	}
	rest := strings.TrimSpace(text[len(prefix):])
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return []string{"all"}, "", true
	}
	for _, n := range strings.Split(fields[0], ",") {
		if n != "" {
			names = append(names, n)
		}
	}
	reason = strings.TrimSpace(strings.TrimPrefix(rest, fields[0]))
	return names, reason, true
}

// --- shared type-inspection helpers -----------------------------------------

// CalleeFunc resolves the static callee of a call, or nil for calls through
// function values, conversions and builtins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// FuncPkgName returns the name of the package that declares fn ("" for
// builtins/universe).
func FuncPkgName(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Name()
}

// IsMethod reports whether fn is a method (has a receiver).
func IsMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	return sig != nil && sig.Recv() != nil
}

// NamedType unwraps pointers and aliases down to the *types.Named beneath t,
// or nil.
func NamedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// IsNamed reports whether t is (a pointer to) the named type typeName
// declared in a package called pkgName. Matching by package *name* rather
// than full path keeps the analyzers testable against small fixture stubs:
// a testdata package named "trace" stands in for hyperq/internal/trace.
func IsNamed(t types.Type, pkgName, typeName string) bool {
	n := NamedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Name() == pkgName && n.Obj().Name() == typeName
}

// HasMethod reports whether t's method set (taking the address when t is
// addressable) contains an exported method with the given name.
func HasMethod(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Interface); !ok {
		if _, ok := t.(*types.Pointer); !ok {
			t = types.NewPointer(t)
		}
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	fn, ok := obj.(*types.Func)
	return ok && fn != nil
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
