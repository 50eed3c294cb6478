//go:build ignore

// Command smoke is the CI end-to-end smoke check: it boots the built
// cloudsrv and hyperq binaries on loopback ports, submits three requests
// through the bteq client, and asserts the gateway's /metrics introspection
// endpoint reports non-zero pipeline-stage and SLO counters, exactly as many
// requests as were sent, and that its replay capture log holds one sequenced
// line per request. A second phase restarts the gateway with -pool-size 2,
// drives 8 concurrent bteq clients through volatile-table round trips, and
// asserts the request count, the /pool endpoint and the pool /metrics series
// report multiplexing and pinning activity.
//
// Usage (from scripts/check.sh):
//
//	go build -o "$bindir" ./cmd/... && go run scripts/smoke.go -bin "$bindir"
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

func main() {
	bin := flag.String("bin", "", "directory holding the cloudsrv, hyperq, and bteq binaries")
	flag.Parse()
	if *bin == "" {
		log.Fatal("smoke: -bin is required")
	}
	if err := run(*bin); err != nil {
		log.Fatalf("smoke: %v", err)
	}
	fmt.Println("smoke: ok")
}

// freePort reserves a loopback port and releases it for the child to claim.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitTCP polls until the address accepts connections.
func waitTCP(addr string, deadline time.Duration) error {
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			c.Close()
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("%s did not come up within %v", addr, deadline)
}

func start(name string, args ...string) (*exec.Cmd, error) {
	cmd := exec.Command(name, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(name), err)
	}
	return cmd, nil
}

func run(bin string) error {
	backendAddr, err := freePort()
	if err != nil {
		return err
	}
	gatewayAddr, err := freePort()
	if err != nil {
		return err
	}
	debugAddr, err := freePort()
	if err != nil {
		return err
	}

	cloudsrv, err := start(filepath.Join(bin, "cloudsrv"), "-listen", backendAddr)
	if err != nil {
		return err
	}
	defer cloudsrv.Process.Kill()
	if err := waitTCP(backendAddr, 10*time.Second); err != nil {
		return fmt.Errorf("cloudsrv: %w", err)
	}

	logDir, err := os.MkdirTemp("", "smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(logDir)
	queryLog := filepath.Join(logDir, "query.log")
	hyperq, err := start(filepath.Join(bin, "hyperq"),
		"-listen", gatewayAddr, "-backend", backendAddr, "-debug-addr", debugAddr,
		"-query-log", queryLog, "-query-log-capture", "-slo-ms", "1")
	if err != nil {
		return err
	}
	defer hyperq.Process.Kill()
	if err := waitTCP(gatewayAddr, 10*time.Second); err != nil {
		return fmt.Errorf("hyperq: %w", err)
	}
	if err := waitTCP(debugAddr, 10*time.Second); err != nil {
		return fmt.Errorf("hyperq debug endpoint: %w", err)
	}

	// A DDL + DML + query round trip through the wire client.
	requests := []string{
		"CREATE TABLE SMOKE (X INT);",
		"INSERT INTO SMOKE VALUES (1);",
		"SEL COUNT(*) FROM SMOKE;",
	}
	bteq := exec.Command(filepath.Join(bin, "bteq"), "-connect", gatewayAddr, "-user", "smoke")
	bteq.Stdin = strings.NewReader(strings.Join(requests, "\n") + "\n")
	out, err := bteq.CombinedOutput()
	if err != nil {
		return fmt.Errorf("bteq: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "Failure") {
		return fmt.Errorf("bteq request failed:\n%s", out)
	}
	if err := checkCaptureLog(queryLog, requests); err != nil {
		return err
	}

	resp, err := http.Get("http://" + debugAddr + "/metrics")
	if err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	metrics := string(body)
	for _, stage := range []string{"parse", "bind", "transform", "serialize", "execute", "convert"} {
		series := fmt.Sprintf(`hyperq_stage_duration_seconds_count{stage="%s"}`, stage)
		if err := assertNonZero(metrics, series); err != nil {
			return err
		}
	}
	for _, series := range []string{"hyperq_statements_total", "hyperq_slo_calls_total"} {
		if err := assertNonZero(metrics, series); err != nil {
			return err
		}
	}
	if err := assertRequests(metrics, len(requests)); err != nil {
		return err
	}
	// The runtime gauges exist (a young process may not have collected yet, so
	// only the series, not their values), and pprof answers on the same port.
	for _, series := range []string{"hyperq_go_heap_live_bytes", "hyperq_go_gc_cycles_total", "hyperq_go_gc_cpu_fraction", "hyperq_go_goroutines"} {
		if !strings.Contains(metrics, "\n"+series+" ") {
			return fmt.Errorf("series %s missing from /metrics", series)
		}
	}
	pprofResp, err := http.Get("http://" + debugAddr + "/debug/pprof/cmdline")
	if err != nil {
		return fmt.Errorf("/debug/pprof/cmdline: %w", err)
	}
	pprofResp.Body.Close()
	if pprofResp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/pprof/cmdline: status %d", pprofResp.StatusCode)
	}

	return runPooled(bin, backendAddr)
}

// runPooled boots a second gateway with a 2-connection backend pool against
// the already-running cloudsrv and oversubscribes it 4x with concurrent bteq
// sessions, each exercising session pinning through a volatile table.
func runPooled(bin, backendAddr string) error {
	gatewayAddr, err := freePort()
	if err != nil {
		return err
	}
	debugAddr, err := freePort()
	if err != nil {
		return err
	}
	hyperq, err := start(filepath.Join(bin, "hyperq"),
		"-listen", gatewayAddr, "-backend", backendAddr, "-debug-addr", debugAddr,
		"-pool-size", "2", "-pool-max-waiters", "-1", "-pool-acquire-timeout", "30s")
	if err != nil {
		return err
	}
	defer hyperq.Process.Kill()
	if err := waitTCP(gatewayAddr, 10*time.Second); err != nil {
		return fmt.Errorf("pooled hyperq: %w", err)
	}
	if err := waitTCP(debugAddr, 10*time.Second); err != nil {
		return fmt.Errorf("pooled hyperq debug endpoint: %w", err)
	}

	// Each client sends the perClient statements of the script below.
	const clients, perClient = 8, 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			bteq := exec.Command(filepath.Join(bin, "bteq"),
				"-connect", gatewayAddr, "-user", fmt.Sprintf("smoke%d", c))
			// Volatile tables are session-scoped, so every client can use
			// the same name; each CREATE pins that session's connection.
			bteq.Stdin = strings.NewReader(
				"CREATE VOLATILE TABLE VT_SMOKE (X INT) ON COMMIT PRESERVE ROWS;\n" +
					fmt.Sprintf("INSERT INTO VT_SMOKE VALUES (%d);\n", c) +
					"SEL X FROM VT_SMOKE;\n" +
					"DROP TABLE VT_SMOKE;\n")
			out, err := bteq.CombinedOutput()
			if err != nil {
				errs[c] = fmt.Errorf("pooled bteq %d: %v\n%s", c, err, out)
				return
			}
			if strings.Contains(string(out), "Failure") {
				errs[c] = fmt.Errorf("pooled bteq %d request failed:\n%s", c, out)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	resp, err := http.Get("http://" + debugAddr + "/metrics")
	if err != nil {
		return fmt.Errorf("pooled /metrics: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("pooled /metrics: status %d", resp.StatusCode)
	}
	metrics := string(body)
	if err := assertRequests(metrics, clients*perClient); err != nil {
		return err
	}
	for _, series := range []string{
		"hyperq_pool_acquires_total",
		"hyperq_pool_pins_total",
		"hyperq_pool_unpins_total",
		"hyperq_pool_dials_total",
	} {
		if err := assertNonZero(metrics, series); err != nil {
			return err
		}
	}
	if !strings.Contains(metrics, "hyperq_pool_size 2") {
		return fmt.Errorf("pooled /metrics: hyperq_pool_size is not 2")
	}

	resp, err = http.Get("http://" + debugAddr + "/pool")
	if err != nil {
		return fmt.Errorf("/pool: %w", err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/pool: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"acquires"`) {
		return fmt.Errorf("/pool response missing pool stats:\n%s", body)
	}
	return nil
}

// checkCaptureLog waits for the gateway to log the requests, then asserts
// the capture log holds exactly one line per request, numbered 1, 2, 3, ...
// in the gateway's first session.
func checkCaptureLog(path string, requests []string) error {
	var lines []string
	for stop := time.Now().Add(10 * time.Second); len(lines) < len(requests) && time.Now().Before(stop); time.Sleep(50 * time.Millisecond) {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("query log: %w", err)
		}
		lines = strings.FieldsFunc(string(data), func(r rune) bool { return r == '\n' })
	}
	if len(lines) != len(requests) {
		return fmt.Errorf("query log holds %d lines for %d requests: %q", len(lines), len(requests), lines)
	}
	for i, line := range lines {
		var e struct{ Session, Seq uint64 }
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.Session != 1 || e.Seq != uint64(i+1) {
			return fmt.Errorf("query log line %d (err %v) is not session 1, seq %d: %s", i+1, err, i+1, line)
		}
	}
	return nil
}

// seriesValue finds the series line and returns its value ("" when missing).
func seriesValue(metrics, series string) string {
	for _, line := range strings.Split(metrics, "\n") {
		if val, ok := strings.CutPrefix(line, series+" "); ok {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// assertNonZero rejects a zero or missing series value.
func assertNonZero(metrics, series string) error {
	switch seriesValue(metrics, series) {
	case "":
		return fmt.Errorf("series %s missing from /metrics", series)
	case "0":
		return fmt.Errorf("series %s is zero", series)
	}
	return nil
}

// assertRequests checks that the gateway counted exactly the requests sent,
// in its request counter and its request-latency histogram alike.
func assertRequests(metrics string, sent int) error {
	for _, series := range []string{"hyperq_requests_total", "hyperq_request_duration_seconds_count"} {
		if got := seriesValue(metrics, series); got != fmt.Sprint(sent) {
			return fmt.Errorf("series %s is %q, want %d requests", series, got, sent)
		}
	}
	return nil
}
