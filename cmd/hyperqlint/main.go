// Command hyperqlint runs the project's custom static analyzers (package
// internal/lint) as a go vet tool:
//
//	go vet -vettool=$(which hyperqlint) ./...
//
// go vet loads and type-checks each compilation unit (test files included),
// hands it to the tool as a JSON .cfg file with pre-built export data for
// its imports, and caches the result. Exit status: 0 clean, 2 diagnostics
// found, internal error, or any invocation other than the vet protocol's.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hyperq/internal/lint"
	"hyperq/internal/lint/analysis"
)

func main() {
	// go vet probes with -V=full (version for build caching) and -flags
	// (the tool's analyzer flags, none here), then invokes the tool with a
	// single <unit>.cfg argument per compilation unit.
	if len(os.Args) == 2 {
		switch {
		case os.Args[1] == "-V=full":
			printVersion()
			return
		case os.Args[1] == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(os.Args[1], ".cfg"):
			os.Exit(runVettool(os.Args[1]))
		}
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which hyperqlint) ./...")
	os.Exit(2)
}

// printVersion implements -V=full: the output keys go vet's build cache, so
// it must change whenever the tool's behavior might. Hashing our own
// executable is the standard trick.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("hyperqlint version %x\n", h.Sum(nil)[:12])
}

// vetConfig mirrors the JSON unit description cmd/go writes for vet tools.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVettool analyzes one compilation unit described by a cfg file, using
// the compiler export data go vet prepared for its imports.
func runVettool(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hyperqlint: %v\n", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "hyperqlint: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	// go vet expects a facts file per unit even though this suite keeps no
	// cross-package facts; an empty file satisfies the protocol.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "hyperqlint: %v\n", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		af, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "hyperqlint: %v\n", err)
			return 2
		}
		files = append(files, af)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	base := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{
		Importer: cfgImporter{base: base, importMap: cfg.ImportMap},
		Error:    func(error) {},
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "hyperqlint: type-checking %s: %v\n", cfg.ImportPath, err)
		return 2
	}

	diags, err := analysis.Run(&cfgUnit{
		files: files, pkg: pkg, info: info, path: cfg.ImportPath, fset: fset,
	}, lint.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "hyperqlint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", d.Position, d.Message, d.Analyzer.Name)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// cfgImporter resolves a unit's imports through the vet export-data files,
// applying the unit's import map (vendored stdlib) first.
type cfgImporter struct {
	base      types.Importer
	importMap map[string]string
}

func (im cfgImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := im.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return im.base.Import(path)
}

// cfgUnit adapts a vettool compilation unit to analysis.Unit.
type cfgUnit struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	path  string
	fset  *token.FileSet
}

func (u *cfgUnit) Syntax() []*ast.File      { return u.files }
func (u *cfgUnit) TypesPkg() *types.Package { return u.pkg }
func (u *cfgUnit) TypesInfo() *types.Info   { return u.info }
func (u *cfgUnit) Path() string             { return u.path }
func (u *cfgUnit) FileSet() *token.FileSet  { return u.fset }
