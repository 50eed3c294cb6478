// Command cloudsrv runs the cloud data warehouse substrate: an in-memory
// analytical SQL engine modeling one of the capability profiles, served over
// the backend wire protocol (WP-B). It stands in for the cloud database the
// paper's experiments provision.
//
// Usage:
//
//	cloudsrv -listen :7707 -profile CloudA [-tpch 0.01] [-schema file.sql]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/wire/cwp"
	"hyperq/internal/workload/tpch"
)

func main() {
	listen := flag.String("listen", ":7707", "address to serve the backend wire protocol on")
	profile := flag.String("profile", "CloudA", "capability profile to model ("+strings.Join(dialect.Names(), "|")+")")
	tpchSF := flag.Float64("tpch", 0, "preload TPC-H data at this scale factor (0 = none)")
	schema := flag.String("schema", "", "SQL file (ANSI dialect) executed at startup")
	flag.Parse()
	if flag.NArg() > 0 { // flag.Parse stopped there and dropped every flag after it
		log.Fatalf("cloudsrv: unexpected argument %q (cloudsrv takes only flags)", flag.Arg(0))
	}

	prof, err := dialect.ByName(*profile)
	if err != nil {
		log.Fatalf("cloudsrv: %v", err)
	}
	eng := engine.New(prof)
	if *schema != "" {
		sql, err := os.ReadFile(*schema)
		if err != nil {
			log.Fatalf("cloudsrv: %v", err)
		}
		if _, err := eng.NewSession().ExecSQL(string(sql)); err != nil {
			log.Fatalf("cloudsrv: schema: %v", err)
		}
		log.Printf("cloudsrv: applied schema from %s", *schema)
	}
	if *tpchSF > 0 {
		log.Printf("cloudsrv: loading TPC-H at SF %.3f ...", *tpchSF)
		if err := tpch.SetupEngine(eng.NewSession(), *tpchSF); err != nil {
			log.Fatalf("cloudsrv: tpch: %v", err)
		}
		log.Printf("cloudsrv: TPC-H loaded")
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("cloudsrv: %v", err)
	}
	fmt.Printf("cloudsrv: %s engine listening on %s\n", prof.Name, ln.Addr())
	log.Fatal(cwp.Serve(ln, eng))
}
