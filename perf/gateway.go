package perf

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"hyperq/internal/dialect"
	"hyperq/internal/hyperq"
	"hyperq/internal/odbc"
	"hyperq/internal/odbc/pool"
	"hyperq/internal/wire/tdp"
)

// PoolSize is the -pool-size every benchmark gateway runs with: two backend
// connections for two clients, so statement leases never queue and a pinned
// session never starves the other.
const PoolSize = 2

// gateway is a running gateway under test.
type gateway interface {
	Addr() string
	// PID is the process whose CPU and memory are the gateway's.
	PID() int
	Stop()
}

// BuildGateway compiles the unmodified cmd/hyperq into dir and returns the
// binary's path and how long the build took. It runs from the module root,
// which is where the benchmark command itself is run from.
func BuildGateway(dir string) (string, time.Duration, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", 0, fmt.Errorf("perf: run from the repository root (no go.mod here): %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "hyperq"))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hyperq")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("perf: go build ./cmd/hyperq: %v\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// procGateway is cmd/hyperq running as its own OS process.
type procGateway struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
}

// startProcess launches the gateway binary with its shipped defaults plus
// the pool size, the generated schema and the workload's own flags, and
// waits for it to announce its listening address.
func startProcess(bin, outDir, backendAddr string, w *Workload) (gateway, error) {
	schema := filepath.Join(outDir, "schema-"+w.Name+".sql")
	if err := os.WriteFile(schema, []byte(w.GatewaySchema), 0o644); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(outDir, "gateway-"+w.Name+".log"))
	if err != nil {
		return nil, err
	}
	args := []string{
		"-listen", "127.0.0.1:0",
		"-backend", backendAddr,
		"-target", "CloudA",
		"-pool-size", fmt.Sprint(PoolSize),
		"-schema", schema,
	}
	args = append(args, w.GatewayArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// The gateway runs with its runtime defaults whatever the benchmark was
	// started with.
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	dieWithParent(cmd)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	g := &procGateway{cmd: cmd, log: logf}
	// The gateway prints one line, "... listening on <addr>", once it
	// accepts connections.
	line := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			line <- sc.Text()
		}
		close(line)
		for sc.Scan() {
		}
	}()
	select {
	case l, ok := <-line:
		i := strings.LastIndex(l, "listening on ")
		if !ok || i < 0 {
			g.Stop()
			return nil, fmt.Errorf("perf: gateway did not announce its address (see %s)", logf.Name())
		}
		g.addr = strings.TrimSpace(l[i+len("listening on "):])
	case <-time.After(20 * time.Second):
		g.Stop()
		return nil, fmt.Errorf("perf: gateway start timed out (see %s)", logf.Name())
	}
	return g, nil
}

func (g *procGateway) Addr() string { return g.addr }
func (g *procGateway) PID() int     { return g.cmd.Process.Pid }

// Stop kills the process and waits until it has ended.
func (g *procGateway) Stop() {
	_ = g.cmd.Process.Kill()
	_ = g.cmd.Wait()
	_ = g.log.Close()
}

// inprocGateway is the -quick stand-in: the same driver stack cmd/hyperq
// assembles (network driver, resilient driver, pool), served in this
// process. Its CPU and memory are this process's.
type inprocGateway struct {
	ln   net.Listener
	pool *pool.Pool
	done chan struct{}
}

func startInProcess(backendAddr string, w *Workload) (gateway, error) {
	cat, err := w.GatewayCatalog()
	if err != nil {
		return nil, err
	}
	resilience := &odbc.ResilienceMetrics{}
	p, err := pool.New(pool.Config{
		Driver: &odbc.ResilientDriver{
			Inner:   &odbc.NetworkDriver{Addr: backendAddr, User: "hyperq", Password: "hyperq"},
			Timeout: 30 * time.Second,
			Metrics: resilience,
		},
		Size: PoolSize,
	})
	if err != nil {
		return nil, err
	}
	g, err := hyperq.New(hyperq.Config{
		Target:                  dialect.CloudA(),
		Driver:                  p,
		Pool:                    p,
		Catalog:                 cat,
		DisableTranslationCache: w.ColdCache,
		BackendTimeout:          30 * time.Second,
		Resilience:              resilience,
	})
	if err != nil {
		_ = p.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = p.Close()
		return nil, err
	}
	ig := &inprocGateway{ln: ln, pool: p, done: make(chan struct{})}
	go func() {
		defer close(ig.done)
		_ = tdp.ServeOptions(ln, g, tdp.Options{WriteTimeout: 30 * time.Second})
	}()
	return ig, nil
}

func (g *inprocGateway) Addr() string { return g.ln.Addr().String() }
func (g *inprocGateway) PID() int     { return os.Getpid() }

func (g *inprocGateway) Stop() {
	_ = g.ln.Close()
	<-g.done
	_ = g.pool.Close()
}
