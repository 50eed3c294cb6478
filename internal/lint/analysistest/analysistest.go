// Package analysistest checks analyzers against annotated fixture packages,
// mirroring golang.org/x/tools/go/analysis/analysistest. A fixture line
// documents its expected diagnostics in a trailing comment:
//
//	ex.Exec("SELECT 1") // want `Exec\(\) used where ExecContext exists`
//
// Each backquoted token is a regexp that must match exactly one diagnostic
// reported on that line; diagnostics without a matching annotation and
// annotations without a matching diagnostic both fail the test.
//
// Fixtures are hermetic: a fixture root is a GOPATH-style source tree, and
// every import a fixture makes — "context", "sync" and "io" as much as
// "odbc" or "trace" — resolves to the tiny stub package below that root.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hyperq/internal/lint/analysis"
)

// Run type-checks the fixture packages (paths relative to fixtureRoot) and
// verifies the analyzer's diagnostics against the packages' // want
// annotations.
func Run(t *testing.T, fixtureRoot string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	l := &fixtureLoader{root: fixtureRoot, fset: token.NewFileSet(), built: make(map[string]*fixturePkg)}
	for _, path := range paths {
		pkg, err := l.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		diags, err := analysis.Run(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("%s: %v", pkg.path, err)
		}
		checkWants(t, pkg, diags)
	}
}

// fixturePkg is one type-checked fixture package, as an analysis.Unit.
type fixturePkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
	fset  *token.FileSet
}

func (p *fixturePkg) Syntax() []*ast.File      { return p.files }
func (p *fixturePkg) TypesPkg() *types.Package { return p.types }
func (p *fixturePkg) TypesInfo() *types.Info   { return p.info }
func (p *fixturePkg) Path() string             { return p.path }
func (p *fixturePkg) FileSet() *token.FileSet  { return p.fset }

// fixtureLoader parses and type-checks packages below root, resolving every
// import there too; it is the types.Importer of the packages it checks.
// built memoizes each import path for one Run.
type fixtureLoader struct {
	root  string
	fset  *token.FileSet
	built map[string]*fixturePkg
}

func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	pkg, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.types, nil
}

// load type-checks the package in root/path from its .go files.
func (l *fixtureLoader) load(path string) (*fixturePkg, error) {
	if pkg, ok := l.built[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no fixture package %q under %s", path, l.root)
	}
	pkg := &fixturePkg{
		path: path,
		fset: l.fset,
		info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
			Implicits:  make(map[ast.Node]types.Object),
		},
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.files = append(pkg.files, f)
	}
	conf := types.Config{Importer: l}
	if pkg.types, err = conf.Check(path, l.fset, pkg.files, pkg.info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	l.built[path] = pkg
	return pkg, nil
}

// expectation is one `// want` regexp anchored to a fixture line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

var wantToken = regexp.MustCompile("`([^`]*)`")

func checkWants(t *testing.T, pkg *fixturePkg, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, file := range pkg.files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.fset.Position(c.Pos())
				toks := wantToken.FindAllStringSubmatch(rest, -1)
				if len(toks) == 0 {
					t.Errorf("%s:%d: malformed want comment (no backquoted pattern): %s", pos.Filename, pos.Line, c.Text)
					continue
				}
				for _, tok := range toks {
					re, err := regexp.Compile(tok[1])
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, tok[1], err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	for _, d := range diags {
		if w := takeWant(wants, d); w == nil {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.pattern)
		}
	}
}

// takeWant claims the first unmatched expectation on the diagnostic's line
// whose pattern matches its message.
func takeWant(wants []*expectation, d analysis.Diagnostic) *expectation {
	for _, w := range wants {
		if w.matched || w.file != d.Position.Filename || w.line != d.Position.Line {
			continue
		}
		if w.pattern.MatchString(d.Message) {
			w.matched = true
			return w
		}
	}
	return nil
}
