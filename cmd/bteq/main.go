// Command bteq is a batch/interactive client in the spirit of Teradata's
// bteq: it speaks the frontend wire protocol (WP-A) and submits
// Teradata-dialect requests — the unmodified-application role in the paper's
// experiments ("We used Teradata's bteq client to submit queries to
// Hyper-Q", §7.2).
//
// Usage:
//
//	bteq -connect localhost:7706 -user dbc [-file script.sql] [-quiet]
//
// Without -file, statements are read from stdin, one request per line
// (terminate a request with ';'; multiple statements in one line form a
// multi-statement request).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"hyperq/internal/types"
	"hyperq/internal/wire/tdp"
)

func main() {
	connect := flag.String("connect", "localhost:7706", "gateway address")
	user := flag.String("user", "dbc", "logon user")
	pass := flag.String("password", "dbc", "logon password")
	file := flag.String("file", "", "script file to execute (default: stdin)")
	quiet := flag.Bool("quiet", false, "suppress row output, print summaries only")
	flag.Parse()
	if flag.NArg() > 0 { // flag.Parse stopped there and dropped every flag after it
		log.Fatalf("bteq: unexpected argument %q (bteq takes only flags)", flag.Arg(0))
	}

	client, err := tdp.Dial(*connect, *user, *pass)
	if err != nil {
		log.Fatalf("bteq: %v", err)
	}
	defer client.Close()
	fmt.Printf("*** Logon to %s as %s complete.\n", *connect, *user)

	in := os.Stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			log.Fatalf("bteq: %v", err)
		}
		defer f.Close()
		in = f
	}
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	interactive := *file == "" && isTerminal()
	if interactive {
		fmt.Print("BTEQ -- Enter your SQL request:\n> ")
	}
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "--") {
			continue
		}
		if strings.EqualFold(trimmed, ".quit") || strings.EqualFold(trimmed, ".exit") {
			break
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if !strings.HasSuffix(trimmed, ";") {
			continue
		}
		runRequest(client, pending.String(), *quiet)
		pending.Reset()
		if interactive {
			fmt.Print("> ")
		}
	}
	if strings.TrimSpace(pending.String()) != "" {
		runRequest(client, pending.String(), *quiet)
	}
	fmt.Println("*** You are now logged off.")
}

func isTerminal() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func runRequest(client *tdp.Client, sql string, quiet bool) {
	start := time.Now()
	stmts, err := client.Request(sql)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Printf(" *** Failure %v\n", err)
		return
	}
	for _, st := range stmts {
		if st.Cols != nil {
			if !quiet {
				printResultSet(st)
			}
			fmt.Printf(" *** Query completed. %d rows found. %d columns returned.\n", len(st.Rows), len(st.Cols))
		} else {
			fmt.Printf(" *** %s completed. %d rows affected.\n", st.Command, st.Activity)
		}
	}
	fmt.Printf(" *** Total elapsed time was %v.\n\n", elapsed.Round(time.Millisecond))
}

func printResultSet(st *tdp.Statement) {
	widths := make([]int, len(st.Cols))
	cells := make([][]string, len(st.Rows))
	for i, c := range st.Cols {
		widths[i] = len(c.Name)
	}
	for ri, row := range st.Rows {
		cells[ri] = make([]string, len(row))
		for ci, d := range row {
			s := renderDatum(d)
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var hdr strings.Builder
	var sep strings.Builder
	for i, c := range st.Cols {
		if i > 0 {
			hdr.WriteString("  ")
			sep.WriteString("  ")
		}
		hdr.WriteString(pad(c.Name, widths[i]))
		sep.WriteString(strings.Repeat("-", widths[i]))
	}
	fmt.Println(hdr.String())
	fmt.Println(sep.String())
	for _, row := range cells {
		var b strings.Builder
		for i, s := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(s, widths[i]))
		}
		fmt.Println(b.String())
	}
}

func renderDatum(d types.Datum) string {
	if d.Null {
		return "?"
	}
	return strings.TrimRight(d.String(), " ")
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}
