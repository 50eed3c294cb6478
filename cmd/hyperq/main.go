// Command hyperq runs the Adaptive Data Virtualization gateway: it serves
// the frontend wire protocol (WP-A) that unmodified Teradata-dialect
// applications speak and forwards translated requests to a cloud backend
// over WP-B — the deployment of the paper's Figure 1(b).
//
// Usage:
//
//	hyperq -listen :7706 -backend localhost:7707 -target CloudA [-schema file.sql]
//
// The -schema file (Teradata dialect DDL) populates the gateway catalog at
// startup, standing in for Hyper-Q's automated schema discovery.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"hyperq/internal/catalog"
	"hyperq/internal/dialect"
	"hyperq/internal/hyperq"
	"hyperq/internal/odbc"
	"hyperq/internal/odbc/pool"
	"hyperq/internal/querylog"
	"hyperq/internal/schemaload"
	"hyperq/internal/wire/tdp"
)

const (
	// backendTimeout bounds a request's backend execution, reconnects
	// included: the resilient driver's Timeout and the gateway's BackendTimeout.
	backendTimeout = 30 * time.Second
	// clientWriteTimeout evicts a session whose client stalls a result write.
	clientWriteTimeout = 30 * time.Second
)

// config is what the command line resolves to. A setting without a flag is
// a constant above or the library's zero-value default.
type config struct {
	// An empty debugAddr or queryLog is off.
	listen, backend, schema, debugAddr, queryLog string

	queryLogOpts querylog.Options
	driver       *odbc.ResilientDriver // gateway.Resilience shares its Metrics
	pool         pool.Config           // Size 0: no pool, one backend connection per session
	gateway      hyperq.Config         // main adds Catalog, Driver, Pool and QueryLog
	serve        tdp.Options
}

// parse resolves the command line, reporting usage and errors to out. A
// positional argument is an error: the flag package stops at it and would
// drop every flag after it.
func parse(args []string, out io.Writer) (*config, error) {
	fs := flag.NewFlagSet("hyperq", flag.ContinueOnError)
	fs.SetOutput(out)
	fail := func(err error) (*config, error) {
		fmt.Fprintf(out, "hyperq: %v\n", err)
		return nil, err
	}
	c := &config{serve: tdp.Options{WriteTimeout: clientWriteTimeout}}
	fs.StringVar(&c.listen, "listen", ":7706", "address to serve the frontend wire protocol on")
	fs.StringVar(&c.backend, "backend", "localhost:7707", "backend (cloudsrv) address")
	target := fs.String("target", "CloudA", "target capability profile ("+strings.Join(dialect.Names(), "|")+")")
	fs.StringVar(&c.schema, "schema", "", "Teradata-dialect DDL file imported into the gateway catalog")
	user := fs.String("backend-user", "hyperq", "user for backend sessions")
	pass := fs.String("backend-password", "hyperq", "password for backend sessions")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "serve /metrics, /traces, /traces/slow, /sessions, /statements, /pool, /debug/pprof/ on this HTTP address (empty = off)")
	fs.StringVar(&c.queryLog, "query-log", "", "append one JSON line per request to this file (empty = off)")
	fs.IntVar(&c.gateway.CacheEntries, "cache-entries", 0, "translation cache entry bound (0 = default 4096, negative = disable)")
	fs.IntVar(&c.pool.Size, "pool-size", 0, "backend connection pool capacity; sessions multiplex over this many connections (0 = no pool, one dedicated connection per session)")
	fs.IntVar(&c.pool.MaxWaiters, "pool-max-waiters", 0, "max sessions queued for a pool connection before rejecting with 3134 (0 = 4x pool size, negative = unbounded)")
	fs.DurationVar(&c.pool.AcquireTimeout, "pool-acquire-timeout", 0, "max wait for a pool connection before failing with 3134 (0 = default 5s, negative = unbounded)")
	fs.BoolVar(&c.queryLogOpts.Redact, "query-log-redact", false, "redact literal values in query-log SQL text")
	fs.BoolVar(&c.queryLogOpts.Capture, "query-log-capture", false, "record replay capture detail in the query log: per-session sequence numbers, inter-statement timing, and (with -query-log-redact) the pre-redaction SQL; capture logs contain literal values")
	sloMs := fs.Int("slo-ms", 0, "per-request latency SLO in milliseconds; slower requests count as breaches (0 = off)")
	if err := fs.Parse(args); err != nil {
		return nil, err // the FlagSet has reported it
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q (hyperq takes only flags)", fs.Arg(0)))
	}
	if c.queryLogOpts.Capture && c.queryLog == "" {
		return fail(errors.New("-query-log-capture requires -query-log"))
	}
	prof, err := dialect.ByName(*target)
	if err != nil {
		return fail(err)
	}
	c.driver = &odbc.ResilientDriver{
		Inner:   &odbc.NetworkDriver{Addr: c.backend, User: *user, Password: *pass},
		Timeout: backendTimeout,
		Metrics: &odbc.ResilienceMetrics{},
	}
	c.pool.Driver = c.driver
	g := &c.gateway
	g.Target, g.Resilience, g.BackendTimeout = prof, c.driver.Metrics, backendTimeout
	g.DisableTranslationCache = g.CacheEntries < 0
	g.SLO = time.Duration(*sloMs) * time.Millisecond
	return c, nil
}

func main() {
	c, err := parse(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	cat := catalog.New()
	if c.schema != "" {
		if err := schemaload.ImportFile(cat, c.schema); err != nil {
			log.Fatalf("hyperq: %v", err)
		}
		log.Printf("hyperq: imported catalog from %s (%d tables)", c.schema, len(cat.Tables()))
	}
	// The resilient driver (DESIGN.md §7) serves each session directly or,
	// with -pool-size, through a connection pool (§9).
	cfg := c.gateway
	cfg.Catalog, cfg.Driver = cat, c.driver
	if c.pool.Size > 0 {
		backendPool, err := pool.New(c.pool)
		if err != nil {
			log.Fatalf("hyperq: %v", err)
		}
		cfg.Driver, cfg.Pool = backendPool, backendPool
	}
	if c.queryLog != "" {
		qlog, err := querylog.Open(c.queryLog, c.queryLogOpts)
		if err != nil {
			log.Fatalf("hyperq: query log: %v", err)
		}
		defer qlog.Close()
		cfg.QueryLog = qlog
	}
	g, err := hyperq.New(cfg)
	if err != nil {
		log.Fatalf("hyperq: %v", err)
	}
	ln, err := net.Listen("tcp", c.listen)
	if err != nil {
		log.Fatalf("hyperq: %v", err)
	}
	if c.debugAddr != "" {
		go func() {
			log.Printf("hyperq: introspection on http://%s/metrics", c.debugAddr)
			if err := http.ListenAndServe(c.debugAddr, g.DebugHandler()); err != nil {
				log.Printf("hyperq: debug endpoint: %v", err)
			}
		}()
	}
	fmt.Printf("hyperq: virtualizing %s via %s, listening on %s\n", cfg.Target.Name, c.backend, ln.Addr())
	log.Fatal(tdp.ServeOptions(ln, g, c.serve))
}
