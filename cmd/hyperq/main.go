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
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
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

func main() {
	listen := flag.String("listen", ":7706", "address to serve the frontend wire protocol on")
	backend := flag.String("backend", "localhost:7707", "backend (cloudsrv) address")
	target := flag.String("target", "CloudA", "target capability profile ("+strings.Join(dialect.Names(), "|")+")")
	schema := flag.String("schema", "", "Teradata-dialect DDL file imported into the gateway catalog")
	user := flag.String("backend-user", "hyperq", "user for backend sessions")
	pass := flag.String("backend-password", "hyperq", "password for backend sessions")
	cacheEntries := flag.Int("cache-entries", 0, "translation cache entry bound (0 = default 4096, negative = disable)")
	cacheBytes := flag.Int("cache-bytes", 0, "translation cache byte bound (0 = default 32 MiB)")
	statsEvery := flag.Duration("stats", 0, "log gateway metrics at this interval (0 = off), e.g. -stats 30s")
	backendTimeout := flag.Duration("backend-timeout", 30*time.Second, "per-request backend execution deadline (0 = unbounded)")
	backendRetries := flag.Int("backend-retries", 3, "transparent retries for transient backend failures (negative = disable)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive backend connection failures that open the circuit breaker (negative = disable)")
	poolSize := flag.Int("pool-size", 0, "backend connection pool capacity; sessions multiplex over this many connections (0 = no pool, one dedicated connection per session)")
	poolMinIdle := flag.Int("pool-min-idle", 0, "connections the pool keeps pre-dialed and warm")
	poolMaxWaiters := flag.Int("pool-max-waiters", 0, "max sessions queued for a pool connection before rejecting with 3134 (0 = 4x pool size, negative = unbounded)")
	poolAcquireTimeout := flag.Duration("pool-acquire-timeout", 0, "max wait for a pool connection before failing with 3134 (0 = default 5s, negative = unbounded)")
	resultBudget := flag.Int("result-budget", 0, "per-session result memory budget in bytes: a streamed result keeps at most this many bytes in flight between backend fetch and client delivery (0 = default 64 MiB)")
	resultMemoryCap := flag.Int("result-memory-cap", 0, "gateway-wide in-flight result memory hard cap in bytes; requests past it are shed with 3134 (0 = default 256 MiB, negative = unbounded)")
	clientWriteTimeout := flag.Duration("client-write-timeout", 30*time.Second, "evict sessions whose client stalls a result write longer than this (0 = never)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /traces, /traces/slow, /sessions, /statements, /pool, /debug/pprof/ on this HTTP address (empty = off)")
	slowQueryMs := flag.Int("slow-query-ms", 200, "slow-query threshold for /traces/slow retention (0 = disable)")
	queryLogPath := flag.String("query-log", "", "append one JSON line per request to this file (empty = off)")
	queryLogRedact := flag.Bool("query-log-redact", false, "redact literal values in query-log SQL text")
	queryLogCapture := flag.Bool("query-log-capture", false, "record replay capture detail in the query log: per-session sequence numbers, inter-statement timing, and (with -query-log-redact) the pre-redaction SQL; capture logs contain literal values")
	statStatements := flag.Bool("stat-statements", true, "track per-fingerprint workload statistics (/statements)")
	sloMs := flag.Int("slo-ms", 0, "per-request latency SLO in milliseconds; slower requests count as breaches (0 = off)")
	sloObjective := flag.Float64("slo-objective", 0.99, "target fraction of requests meeting the SLO (error budget = 1-objective)")
	flag.Parse()

	prof, err := dialect.ByName(*target)
	if err != nil {
		log.Fatalf("hyperq: %v", err)
	}
	cat := catalog.New()
	if *schema != "" {
		if err := schemaload.ImportFile(cat, *schema); err != nil {
			log.Fatalf("hyperq: %v", err)
		}
		log.Printf("hyperq: imported catalog from %s (%d tables)", *schema, len(cat.Tables()))
	}
	// The network driver is wrapped in the fault-tolerant execution layer:
	// deadlines, transparent retry/reconnect with session replay, and a
	// per-backend circuit breaker (DESIGN.md §7).
	resilience := &odbc.ResilienceMetrics{}
	var driver odbc.Driver = &odbc.ResilientDriver{
		Inner:            &odbc.NetworkDriver{Addr: *backend, User: *user, Password: *pass},
		Timeout:          *backendTimeout,
		MaxRetries:       *backendRetries,
		BreakerThreshold: *breakerThreshold,
		Metrics:          resilience,
	}
	// With -pool-size the resilient driver is shared through a connection
	// pool: frontend sessions multiplex over at most pool-size backend
	// connections with statement-level leases (DESIGN.md §9).
	var backendPool *pool.Pool
	if *poolSize > 0 {
		backendPool, err = pool.New(pool.Config{
			Driver:         driver,
			Size:           *poolSize,
			MinIdle:        *poolMinIdle,
			MaxWaiters:     *poolMaxWaiters,
			AcquireTimeout: *poolAcquireTimeout,
		})
		if err != nil {
			log.Fatalf("hyperq: %v", err)
		}
		driver = backendPool
	}
	var qlog *querylog.Writer
	if *queryLogPath != "" {
		qlog, err = querylog.OpenOptions(*queryLogPath, querylog.Options{
			Redact:  *queryLogRedact,
			Capture: *queryLogCapture,
		})
		if err != nil {
			log.Fatalf("hyperq: query log: %v", err)
		}
		defer qlog.Close()
	} else if *queryLogCapture {
		log.Fatalf("hyperq: -query-log-capture requires -query-log")
	}
	slowQuery := time.Duration(*slowQueryMs) * time.Millisecond
	if *slowQueryMs <= 0 {
		slowQuery = -1 // retain nothing in the slow list
	}
	g, err := hyperq.New(hyperq.Config{
		Target:                  prof,
		Driver:                  driver,
		Catalog:                 cat,
		CacheEntries:            *cacheEntries,
		CacheBytes:              *cacheBytes,
		DisableTranslationCache: *cacheEntries < 0,
		BackendTimeout:          *backendTimeout,
		Resilience:              resilience,
		SlowQuery:               slowQuery,
		QueryLog:                qlog,
		Pool:                    backendPool,
		ResultBudget:            *resultBudget,
		ResultMemoryCap:         *resultMemoryCap,
		DisableStatStatements:   !*statStatements,
		SLO:                     time.Duration(*sloMs) * time.Millisecond,
		SLOObjective:            *sloObjective,
	})
	if err != nil {
		log.Fatalf("hyperq: %v", err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("hyperq: %v", err)
	}
	if *debugAddr != "" {
		go func() {
			log.Printf("hyperq: introspection on http://%s/metrics", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, g.DebugHandler()); err != nil {
				log.Printf("hyperq: debug endpoint: %v", err)
			}
		}()
	}
	if *statsEvery > 0 {
		go logStats(g, *statsEvery)
	}
	fmt.Printf("hyperq: virtualizing %s via %s, listening on %s\n", prof.Name, *backend, ln.Addr())
	log.Fatal(tdp.ServeOptions(ln, g, tdp.Options{WriteTimeout: *clientWriteTimeout}))
}

// logStats periodically logs the gateway metrics, including the translation
// cache counters. Translation overhead is reported as the p50/p95 of the
// per-request overhead distribution (histogram-backed) rather than a single
// cumulative ratio, so a few long backend scans cannot mask slow translation.
func logStats(g *hyperq.Gateway, every time.Duration) {
	for range time.Tick(every) {
		m := g.MetricsSnapshot()
		ov := g.Stages().Overhead.Snapshot()
		req := g.Stages().Request.Snapshot()
		log.Printf("hyperq: requests=%d statements=%d translate=%s execute=%s convert=%s overhead p50=%.1f%% p95=%.1f%% request p50=%s p95=%s cache hit=%d miss=%d bypass=%d evict=%d retries=%d reconnects=%d replays=%d breaker_open=%d quarantined=%d",
			m.Requests, m.Statements, m.Translate, m.Execute, m.Convert,
			100*ov.Quantile(0.5), 100*ov.Quantile(0.95),
			time.Duration(req.Quantile(0.5)*float64(time.Second)).Round(time.Microsecond),
			time.Duration(req.Quantile(0.95)*float64(time.Second)).Round(time.Microsecond),
			m.CacheHits, m.CacheMisses, m.CacheBypass, m.CacheEvict,
			m.Retries, m.Reconnects, m.Replays, m.BreakerOpen, m.ReplicaQuarantined)
		log.Printf("hyperq: results streamed=%d (%dB) buffered=%d (%dB) inflight=%dB peak=%dB shed=%d evicted=%d midstream_failures=%d",
			m.StreamedResults, m.StreamedBytes, m.BufferedResults, m.BufferedBytes,
			m.ResultInflightBytes, m.ResultPeakBytes,
			m.ResultShed, m.ClientsEvicted, m.MidstreamFailures)
		if reg := g.Statements(); reg != nil {
			sum := reg.Snapshot("total", 0)
			line := fmt.Sprintf("hyperq: statements shapes=%d/%d observed=%d", sum.Entries, sum.MaxEntries, sum.Observed)
			if len(sum.Statements) > 0 {
				top := sum.Statements[0]
				line += fmt.Sprintf(" top=%s calls=%d p95=%s", top.Fingerprint, top.Calls, time.Duration(top.P95Ns).Round(time.Microsecond))
			}
			if sum.SLO != nil {
				line += fmt.Sprintf(" slo=%dms breaches=%d burn=%.2f violating=%d", sum.SLO.SLOMs, sum.SLO.Breaches, sum.SLO.BurnRate, len(sum.SLO.Violating))
			}
			log.Print(line)
		}
		if ps, ok := g.PoolStats(); ok {
			log.Printf("hyperq: pool size=%d in_use=%d idle=%d pinned=%d waiters=%d acquires=%d waits=%d wait p95=%s timeouts=%d rejected=%d shed=%d discarded=%d recycled=%d",
				ps.Size, ps.InUse, ps.Idle, ps.Pinned, ps.Waiters,
				ps.Acquires, ps.Waits,
				time.Duration(ps.WaitSeconds.Quantile(0.95)*float64(time.Second)).Round(time.Microsecond),
				ps.Timeouts, ps.Rejected, ps.Shed, ps.Discarded, ps.Recycled)
		}
	}
}
