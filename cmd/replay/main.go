// Command replay is the shadow-migration replay harness: it reads a
// capture-mode query log (written by hyperq -query-log-capture), reconstructs
// the per-session statement streams, and re-executes them through a full
// gateway pipeline against two backend profiles simultaneously — a trusted
// baseline and a candidate under validation. Every read runs on both
// backends and their answers are diffed under configurable tolerances; the
// run ends with an equivalence report (JSON and human summary) that cites,
// for every divergence, the exact statement, row, and column where the
// candidate disagreed.
//
// Usage:
//
//	replay -target CloudA -baseline host:7707 -candidate host:7708 \
//	       [-schema ddl.sql] [-setup setup.sql] [-speedup 10] \
//	       [-max-concurrency 32] [-json report.json] capture.log.1 capture.log
//
// Capture files are given oldest rotation first; sessions split across
// rotated files are stitched back together. Exit status: 0 when the
// profiles answered equivalently, 1 when the report holds divergences, 2 on
// usage or execution errors.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"hyperq/internal/catalog"
	"hyperq/internal/dialect"
	"hyperq/internal/odbc"
	"hyperq/internal/replay"
	"hyperq/internal/schemaload"
)

func main() {
	target := flag.String("target", "CloudA", "target capability profile both backends speak ("+strings.Join(dialect.Names(), "|")+")")
	baseline := flag.String("baseline", "", "trusted backend (cloudsrv) address; its answers are ground truth")
	candidate := flag.String("candidate", "", "candidate backend address under validation")
	user := flag.String("backend-user", "hyperq", "user for backend sessions")
	pass := flag.String("backend-password", "hyperq", "password for backend sessions")
	schema := flag.String("schema", "", "Teradata-dialect DDL file imported into the replay gateway catalog")
	setup := flag.String("setup", "", "statement file run through the gateway before the replay (views, macros); statements separated by semicolons")
	speedup := flag.Float64("speedup", 1, "replay speed-up over the captured timing; 0 replays at maximum speed")
	maxConcurrency := flag.Int("max-concurrency", 0, "captured sessions replaying at once (0 = all concurrently)")
	floatEps := flag.Float64("float-eps", 0, "FLOAT tolerance: values in the same eps-wide bucket compare equal (0 = exact)")
	tsTruncate := flag.Duration("timestamp-truncate", 0, "truncate TIMESTAMP values to this precision before comparing, e.g. 1ms (0 = exact)")
	charPad := flag.Bool("char-pad", false, "ignore trailing-blank CHAR padding differences")
	backendTimeout := flag.Duration("backend-timeout", 30*time.Second, "per-statement backend execution deadline (0 = unbounded)")
	jsonOut := flag.String("json", "", "write the machine-readable report to this file ('-' = stdout)")
	flag.Parse()

	if flag.NArg() == 0 || *baseline == "" || *candidate == "" {
		fmt.Fprintln(os.Stderr, "usage: replay -baseline ADDR -candidate ADDR [flags] capture.log...")
		flag.PrintDefaults()
		os.Exit(2)
	}
	prof, err := dialect.ByName(*target)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	cat := catalog.New()
	if *schema != "" {
		if err := schemaload.ImportFile(cat, *schema); err != nil {
			log.Fatalf("replay: %v", err)
		}
	}
	streams, err := replay.Load(flag.Args()...)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	r, err := replay.NewRunner(replay.Config{
		Target:         prof,
		Baseline:       &odbc.NetworkDriver{Addr: *baseline, User: *user, Password: *pass},
		Candidate:      &odbc.NetworkDriver{Addr: *candidate, User: *user, Password: *pass},
		BaselineName:   *baseline,
		CandidateName:  *candidate,
		Speedup:        *speedup,
		MaxConcurrency: *maxConcurrency,
		Tolerance: replay.Tolerance{
			FloatEps:          *floatEps,
			TimestampTruncate: *tsTruncate,
			TrimCharPad:       *charPad,
		},
		BackendTimeout: *backendTimeout,
		Catalog:        cat,
	})
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	if *setup != "" {
		stmts, err := readStatements(*setup)
		if err != nil {
			log.Fatalf("replay: %v", err)
		}
		if err := r.Prepare("setup", stmts); err != nil {
			log.Fatalf("replay: %v", err)
		}
	}
	rep := r.Replay(streams)
	fmt.Print(rep.Summary())
	if *jsonOut != "" {
		out := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				log.Fatalf("replay: %v", err)
			}
			defer f.Close()
			out = f
		}
		if err := rep.WriteJSON(out); err != nil {
			log.Fatalf("replay: %v", err)
		}
	}
	if !rep.Equivalent {
		os.Exit(1)
	}
}

// readStatements splits a setup script on semicolons at top level, honoring
// string literals, quoted identifiers, and comments — macro bodies keep
// their internal semicolons.
func readStatements(path string) ([]string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	var cur strings.Builder
	s := string(src)
	depth := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\'' || c == '"':
			q := c
			cur.WriteByte(c)
			i++
			for i < len(s) {
				cur.WriteByte(s[i])
				if s[i] == q {
					if q == '\'' && i+1 < len(s) && s[i+1] == q {
						i++
						cur.WriteByte(s[i])
						i++
						continue
					}
					break
				}
				i++
			}
		case c == '-' && i+1 < len(s) && s[i+1] == '-':
			for i < len(s) && s[i] != '\n' {
				i++
			}
			cur.WriteByte('\n')
		case c == '(':
			depth++
			cur.WriteByte(c)
		case c == ')':
			depth--
			cur.WriteByte(c)
		case c == ';' && depth == 0:
			if st := strings.TrimSpace(cur.String()); st != "" {
				out = append(out, st)
			}
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if st := strings.TrimSpace(cur.String()); st != "" {
		out = append(out, st)
	}
	return out, nil
}
