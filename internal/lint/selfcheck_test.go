package lint

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSuiteCleanOnRepo runs every analyzer over the repository itself
// (tests included) and demands a clean bill: the invariants the suite
// encodes are supposed to hold on the shipped tree, with every deviation
// carrying an audited //hyperqlint:ignore reason. The suite's only driver is
// go vet, so this builds cmd/hyperqlint and runs
// `go vet -vettool=hyperqlint ./...` at the module root; it is skipped in
// -short runs.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds hyperqlint and runs go vet over the whole repo; skipped in -short mode")
	}
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	modRoot := strings.TrimSpace(string(out))

	bin := filepath.Join(t.TempDir(), "hyperqlint")
	build := exec.Command("go", "build", "-o", bin, "hyperq/cmd/hyperqlint")
	build.Dir = modRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building hyperqlint: %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = modRoot
	if out, err := vet.CombinedOutput(); err != nil || len(bytes.TrimSpace(out)) > 0 {
		t.Fatalf("go vet -vettool=hyperqlint ./...: %v\n%s", err, out)
	}
}
