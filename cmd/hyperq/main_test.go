package main

import (
	"bytes"
	"errors"
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"hyperq/internal/dialect"
	"hyperq/internal/hyperq"
	"hyperq/internal/odbc"
	"hyperq/internal/odbc/pool"
	"hyperq/internal/wire/tdp"
)

// TestFlagSurface pins the flags `hyperq -h` lists.
func TestFlagSurface(t *testing.T) {
	var out bytes.Buffer
	if _, err := parse([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("parse(-h) = %v, want flag.ErrHelp", err)
	}
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	want := []string{
		"backend", "backend-password", "backend-user", "cache-entries", "debug-addr",
		"listen", "pool-acquire-timeout", "pool-max-waiters", "pool-size", "query-log",
		"query-log-capture", "query-log-redact", "schema", "slo-ms", "target",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hyperq -h lists %d flags %v, want %d %v", len(got), got, len(want), want)
	}
}

// effective replaces every zero value that the libraries resolve to a
// default with that default, so two command lines compare by what the
// gateway runs with rather than by what main spelled out.
func effective(c *config) {
	if c.pool.MaxWaiters == 0 { // pool.New
		c.pool.MaxWaiters = 4 * c.pool.Size
	}
	if c.pool.AcquireTimeout == 0 {
		c.pool.AcquireTimeout = 5 * time.Second
	}
	g := &c.gateway
	if g.CacheEntries == 0 { // hyperq.New
		g.CacheEntries = 4096
	}
}

// TestResolvedDefaultsUnchanged pins what the shipped defaults and the
// command line perf/ starts the gateway with resolve to: the gateway,
// resilient-driver, pool and wire-server settings.
func TestResolvedDefaultsUnchanged(t *testing.T) {
	want := func(backend string, poolSize, cacheEntries int) *config {
		resilience := &odbc.ResilienceMetrics{}
		driver := &odbc.ResilientDriver{
			Inner:   &odbc.NetworkDriver{Addr: backend, User: "hyperq", Password: "hyperq"},
			Timeout: 30 * time.Second,
			Metrics: resilience,
		}
		return &config{
			backend: backend,
			driver:  driver,
			pool: pool.Config{
				Driver:         driver,
				Size:           poolSize,
				MaxWaiters:     4 * poolSize,
				AcquireTimeout: 5 * time.Second,
			},
			gateway: hyperq.Config{
				Target:                  dialect.CloudA(),
				CacheEntries:            cacheEntries,
				DisableTranslationCache: cacheEntries < 0,
				BackendTimeout:          30 * time.Second,
				Resilience:              resilience,
			},
			serve: tdp.Options{WriteTimeout: 30 * time.Second},
		}
	}
	// The resilient driver's retry and breaker policy is odbc's constants.
	if odbc.MaxRetries != 3 || odbc.BreakerThreshold != 5 {
		t.Errorf("odbc.MaxRetries, odbc.BreakerThreshold = %d, %d, want 3, 5", odbc.MaxRetries, odbc.BreakerThreshold)
	}
	defaults := want("localhost:7707", 0, 4096)
	defaults.listen = ":7706"
	perfArgs := []string{"-listen", "127.0.0.1:0", "-backend", "127.0.0.1:7707", "-target", "CloudA", "-pool-size", "4", "-schema", "schema.sql"}
	perfWarm := want("127.0.0.1:7707", 4, 4096)
	perfWarm.listen, perfWarm.schema = "127.0.0.1:0", "schema.sql"
	perfCold := want("127.0.0.1:7707", 4, -1)
	perfCold.listen, perfCold.schema = "127.0.0.1:0", "schema.sql"

	for _, tc := range []struct {
		name string
		args []string
		want *config
	}{
		{"defaults", nil, defaults},
		{"perf", perfArgs, perfWarm},
		{"perf cold cache", append(perfArgs, "-cache-entries", "-1"), perfCold},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			got, err := parse(tc.args, &out)
			if err != nil {
				t.Fatalf("parse: %v\n%s", err, out.String())
			}
			if got.gateway.Resilience != got.driver.Metrics {
				t.Error("gateway and resilient driver do not share one ResilienceMetrics")
			}
			if got.pool.Driver != odbc.Driver(got.driver) {
				t.Error("the pool does not dial through the resilient driver")
			}
			effective(got)
			if !reflect.DeepEqual(got.driver, tc.want.driver) {
				t.Errorf("resilient driver = %+v, want %+v", got.driver, tc.want.driver)
			}
			if !reflect.DeepEqual(got.pool, tc.want.pool) {
				t.Errorf("pool.Config = %+v, want %+v", got.pool, tc.want.pool)
			}
			if !reflect.DeepEqual(got.gateway, tc.want.gateway) {
				t.Errorf("hyperq.Config = %+v, want %+v", got.gateway, tc.want.gateway)
			}
			if got.serve != tc.want.serve {
				t.Errorf("tdp.Options = %+v, want %+v", got.serve, tc.want.serve)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("config = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestParseRejectsBadCommandLines pins the command lines hyperq refuses to
// start with. A stray word is one: the flag package stops at it, so
// "-listen :7706 stray -pool-size 2" would otherwise start without a pool.
func TestParseRejectsBadCommandLines(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-listen", ":7706", "stray", "-pool-size", "2"}, `unexpected argument "stray"`},
		{[]string{"stray"}, `unexpected argument "stray"`},
		{[]string{"-target", "CloudZ"}, "CloudZ"},
		{[]string{"-query-log-capture"}, "-query-log-capture requires -query-log"},
		{[]string{"-stats", "5s"}, "flag provided but not defined: -stats"},
	} {
		var out bytes.Buffer
		c, err := parse(tc.args, &out)
		if err == nil {
			t.Errorf("parse(%q) = %+v, want an error", tc.args, c)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) || !strings.Contains(out.String(), tc.want) {
			t.Errorf("parse(%q): error %q, output %q; want both to name %q", tc.args, err, out.String(), tc.want)
		}
	}
}
