package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBinaryCleanOnRepo runs `go vet -vettool=hyperqlint ./...` at the
// module root — the invocation scripts/check.sh uses — and demands a clean
// bill: the invariants the suite encodes hold on the shipped tree (tests
// included), with every deviation carrying an audited //hyperqlint:ignore
// reason. It also pins the vet handshake, the usage refusal, and that the
// tool links no gateway package.
func TestBinaryCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs go vet over the whole repo; skipped in -short mode")
	}
	modRoot := moduleRoot(t)
	bin := buildLint(t, modRoot)

	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = modRoot
	if out, err := vet.CombinedOutput(); err != nil || len(bytes.TrimSpace(out)) > 0 {
		t.Fatalf("go vet -vettool=hyperqlint ./...: %v\n%s", err, out)
	}

	// The vettool handshake must answer the go vet probes.
	for _, probe := range []string{"-V=full", "-flags"} {
		cmd := exec.Command(bin, probe)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("hyperqlint %s: %v", probe, err)
		}
		if probe == "-V=full" && !strings.HasPrefix(string(out), "hyperqlint version ") {
			t.Fatalf("hyperqlint -V=full = %q", out)
		}
		if probe == "-flags" && strings.TrimSpace(string(out)) != "[]" {
			t.Fatalf("hyperqlint -flags = %q", out)
		}
	}

	// The tool links no gateway package: an edit to the gateway must not
	// change the vet tool's binary, or go vet would re-analyze every package.
	deps := exec.Command("go", "list", "-deps", "./cmd/hyperqlint")
	deps.Dir = modRoot
	out, err := deps.Output()
	if err != nil {
		t.Fatalf("go list -deps ./cmd/hyperqlint: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if strings.HasPrefix(pkg, "hyperq/internal/") && !strings.HasPrefix(pkg, "hyperq/internal/lint") {
			t.Errorf("cmd/hyperqlint depends on gateway package %s", pkg)
		}
	}

	// Anything else is refused with the one usage line and exit 2.
	for _, args := range [][]string{nil, {"./..."}, {"-list"}} {
		cmd := exec.Command(bin, args...)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("hyperqlint %v: err = %v, want exit status 2", args, err)
		}
		if want := "usage: go vet -vettool=$(which hyperqlint) ./...\n"; string(out) != want {
			t.Errorf("hyperqlint %v printed %q, want %q", args, out, want)
		}
	}
}

// TestVetToolCatchesInjected proves the go vet integration end to end: a
// scratch module carries one violation per analyzer plus one suppressed
// violation, and `go vet -vettool=hyperqlint` must fail naming each analyzer
// exactly once and staying silent on the suppressed line. This guards the
// unitchecker protocol plumbing (handshake, export-data importing,
// suppression, diagnostics exit code), not just the analyzers — a regression
// that made the vettool silently pass everything would show up here and
// nowhere else.
func TestVetToolCatchesInjected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs go vet; skipped in -short mode")
	}
	bin := buildLint(t, moduleRoot(t))

	probe := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(probe, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module probe\n\ngo 1.22\n")
	// Stub span API matching spanend's trace.Span by package and type name.
	write("trace/trace.go", `package trace

type Trace struct{}

func (t *Trace) Start(name string) *Span { return &Span{} }

type Span struct{}

func (sp *Span) End() {}
`)
	write("use/use.go", `package use

import (
	"sync"
	"sync/atomic"
	"time"

	"probe/trace"
)

type stats struct{ n int64 }

func Bump(s *stats) { atomic.AddInt64(&s.n, 1) }

func Read(s *stats) int64 { return s.n } // atomicfield: plain read

func Traced(tr *trace.Trace, bail bool) {
	sp := tr.Start("exec")
	if bail {
		return // spanend: sp unended on this path
	}
	sp.End()
}

var mu sync.Mutex

func Nap() {
	mu.Lock()
	time.Sleep(time.Millisecond) // lockio: sleeping under mu
	mu.Unlock()
}
`)
	// The directive is spelled in two halves so that scripts/check.sh's
	// suppression count, which greps the source, does not count the probe.
	write("use/quiet.go", `package use

func QuietRead(s *stats) int64 {
	`+"//hyperqlint"+`:ignore atomicfield the probe's suppressed violation
	return s.n
}
`)
	// ctxexec patrols only request-path packages.
	write("internal/odbc/odbc.go", `package odbc

import "context"

func Detached() context.Context {
	return context.Background() // ctxexec: drops the request context
}
`)

	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = probe
	vet.Env = append(os.Environ(), "GOWORK=off")
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool passed on a module with injected violations:\n%s", out)
	}
	for _, analyzer := range []string{
		"spanend", "lockio", "ctxexec", "atomicfield",
	} {
		if n := strings.Count(string(out), "["+analyzer+"]"); n != 1 {
			t.Errorf("go vet output names [%s] %d times, want 1:\n%s", analyzer, n, out)
		}
	}
	if strings.Contains(string(out), "quiet.go") {
		t.Errorf("go vet reported the suppressed violation:\n%s", out)
	}
}

// buildLint builds the hyperqlint binary into a test temp directory.
func buildLint(t *testing.T, modRoot string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hyperqlint")
	build := exec.Command("go", "build", "-o", bin, "hyperq/cmd/hyperqlint")
	build.Dir = modRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building hyperqlint: %v\n%s", err, out)
	}
	return bin
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	dir := strings.TrimSpace(string(out))
	if dir == "" {
		t.Fatal("no module root")
	}
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
		t.Fatalf("module root %s: %v", dir, err)
	}
	return dir
}
