// Package perf is the repository's one performance instrument: an
// over-the-wire closed-loop benchmark of the unmodified gateway binary
// against a backend that costs nothing, plus a per-layer pass that times each
// package's public entry points. README.md in this directory defines the
// workloads and metrics.
package perf

import (
	"fmt"
	"math/rand"
	"strings"

	"hyperq/internal/types"
	"hyperq/internal/workload/customer"
)

// Workload names, fixed: later issues cite them.
const (
	TranslateCold = "translate_cold"
	CacheHot      = "cache_hot"
	ResultStream  = "result_stream"
	SessionMix    = "session_mix"
)

// WorkloadNames lists the workloads in reporting order.
var WorkloadNames = []string{TranslateCold, CacheHot, ResultStream, SessionMix}

// Workload is one generated traffic mix. The gateway under test only ever
// sees Texts, in the order Streams gives; everything else feeds the
// reference engine that records the canned replies.
type Workload struct {
	Name string
	// GatewayArgs are the cmd/hyperq flags this workload adds to the shipped
	// defaults; ColdCache is the same choice for an in-process gateway.
	GatewayArgs []string
	ColdCache   bool
	// GatewaySchema is the Teradata-dialect DDL the gateway catalog imports
	// (the -schema file).
	GatewaySchema string
	// EngineDDL provisions the reference engine (ANSI dialect); EngineRows are
	// bulk-loaded afterwards, table name to rows.
	EngineDDL  []string
	EngineRows map[string][][]types.Datum
	// Setup runs once per gateway through a session before any request
	// (macros and views live in the gateway catalog).
	Setup []string
	// Texts are the distinct SQL-A request texts; Record is the order in
	// which set-up runs each of them once on the reference gateway.
	Texts  []string
	Record []int32
	// Streams holds one request sequence per client, as indexes into Texts.
	// A client cycles through its sequence.
	Streams [][]int32
	// CycleLen is the number of requests in one transactional write cycle
	// (0 when the workload has none).
	CycleLen int
}

// texts interns request texts.
type texts struct {
	list  []string
	index map[string]int32
}

func (t *texts) id(sql string) int32 {
	if i, ok := t.index[sql]; ok {
		return i
	}
	if t.index == nil {
		t.index = make(map[string]int32)
	}
	i := int32(len(t.list))
	t.list = append(t.list, sql)
	t.index[sql] = i
	return i
}

// customerSchema is the gateway-side (Teradata dialect) definition of the
// customer tables; the generator's own DDL parses in both dialects.
func customerSchema() string {
	return customer.SchemaDDL[0] + ";\n" + customer.SchemaDDL[1] + ";\n"
}

// NewWorkload generates the named workload for the seed and client count.
// wideRows sizes result_stream's table (WideRows outside smoke tests).
func NewWorkload(name string, seed int64, clients, wideRows int) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case TranslateCold:
		return translateCold(rng, clients), nil
	case CacheHot:
		return cacheHot(rng, clients), nil
	case ResultStream:
		return resultStream(rng, clients, wideRows), nil
	case SessionMix:
		return sessionMix(rng, clients), nil
	}
	return nil, fmt.Errorf("perf: unknown workload %q (have %s)", name, strings.Join(WorkloadNames, ", "))
}

func customerWorkload(name string) *Workload {
	return &Workload{
		Name:          name,
		GatewaySchema: customerSchema(),
		EngineDDL:     customer.SchemaDDL,
		Setup:         customer.GatewaySetup,
	}
}

// rotations gives each client the same sequence started at a different
// point, so the clients never send the same text at the same moment.
func rotations(seq []int32, clients int) [][]int32 {
	out := make([][]int32, clients)
	for c := range out {
		off := c * len(seq) / clients
		out[c] = append(append(make([]int32, 0, len(seq)), seq[off:]...), seq[:off]...)
	}
	return out
}

func identity(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// translateCold: every distinct Workload 1 statement once per cycle, in
// seeded order, against a gateway with the translation cache off. Each
// request pays the whole lex-parse-bind-transform-serialize path.
func translateCold(rng *rand.Rand, clients int) *Workload {
	w := customerWorkload(TranslateCold)
	w.GatewayArgs = []string{"-cache-entries", "-1"}
	w.ColdCache = true
	var tx texts
	qs := customer.Generate(customer.Workload1())
	seq := make([]int32, len(qs))
	for i, q := range qs {
		seq[i] = tx.id(q.SQL)
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	w.Texts, w.Record = tx.list, identity(len(tx.list))
	w.Streams = rotations(seq, clients)
	return w
}

// expand repeats each query as often as the customer's stream contains it.
func expand(qs []customer.Query, tx *texts) []int32 {
	seq := make([]int32, 0, customer.TotalOf(qs))
	for _, q := range qs {
		id := tx.id(q.SQL)
		for r := 0; r < q.Repeats; r++ {
			seq = append(seq, id)
		}
	}
	return seq
}

// cacheHot: the full Workload 1 stream with its repeat counts against the
// default cache, which holds the whole working set. What is left per request
// is framing, leasing and bookkeeping.
func cacheHot(rng *rand.Rand, clients int) *Workload {
	w := customerWorkload(CacheHot)
	var tx texts
	seq := expand(customer.Generate(customer.Workload1()), &tx)
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	w.Texts, w.Record = tx.list, identity(len(tx.list))
	w.Streams = rotations(seq, clients)
	return w
}

// The write cycle of sessionMix: a transaction around a volatile table's
// whole life. cycleEvery stream requests separate two cycles of one client.
const (
	cycleEvery    = 32
	cycleVariants = 8
)

func writeCycle(v int, rng *rand.Rand) []string {
	k := 100 + v
	return []string{
		"BT",
		"CREATE VOLATILE TABLE bench_vt (k INTEGER, v VARCHAR(20)) ON COMMIT PRESERVE ROWS",
		fmt.Sprintf("INSERT INTO bench_vt VALUES (%d, 'w%08d')", k, rng.Intn(100000000)),
		// The key in the predicate keeps each variant's SELECT a distinct
		// SQL-B text, so its canned reply does not depend on which variant's
		// INSERT ran last.
		fmt.Sprintf("SEL k, v FROM bench_vt WHERE k = %d", k),
		"DROP TABLE bench_vt",
		"ET",
	}
}

// sessionMix: the Workload 2 stream (macro calls, HELP, multi-statement
// requests, BT/ET; more distinct texts than cache entries) with a write cycle
// after every cycleEvery requests of a client.
func sessionMix(rng *rand.Rand, clients int) *Workload {
	w := customerWorkload(SessionMix)
	var tx texts
	seq := expand(customer.Generate(customer.Workload2()), &tx)
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	w.Record = identity(len(tx.list))
	cycles := make([][]int32, cycleVariants)
	for v := range cycles {
		for _, sql := range writeCycle(v, rng) {
			id := tx.id(sql)
			cycles[v] = append(cycles[v], id)
			// The cycle is stateful, so set-up records it in request order
			// even where a text (BT, ET, the DDL) repeats across variants.
			w.Record = append(w.Record, id)
		}
	}
	w.CycleLen = len(cycles[0])
	w.Texts = tx.list
	for c, rot := range rotations(seq, clients) {
		out := make([]int32, 0, len(rot)+len(rot)/cycleEvery*w.CycleLen)
		for i, id := range rot {
			out = append(out, id)
			if (i+1)%cycleEvery == 0 {
				out = append(out, cycles[(i/cycleEvery+c)%cycleVariants]...)
			}
		}
		w.Streams = append(w.Streams, out)
	}
	return w
}

// WideRows is the result_stream result size: about 8 MB at ~300 B a row.
const WideRows = 27000

// The wide table as the gateway catalog declares it (what the client is
// promised) and as the backend stores it. qty, price and code differ, so the
// result converter has a types.Cast to do on three columns of every row, the
// way a migrated schema's mapped types make it.
const (
	wideGatewayDDL = `CREATE TABLE bench_wide (
	   id INTEGER NOT NULL, big BIGINT, qty INTEGER, score FLOAT,
	   price DECIMAL(12,2), d DATE, ts TIMESTAMP, code CHAR(20),
	   n1 VARCHAR(50), n2 VARCHAR(50), n3 VARCHAR(50), n4 VARCHAR(50), n5 VARCHAR(50));`
	wideEngineDDL = `CREATE TABLE bench_wide (
	   id INTEGER NOT NULL, big BIGINT, qty BIGINT, score FLOAT,
	   price DECIMAL(12,4), d DATE, ts TIMESTAMP, code VARCHAR(20),
	   n1 VARCHAR(50), n2 VARCHAR(50), n3 VARCHAR(50), n4 VARCHAR(50), n5 VARCHAR(50))`
	wideQuery = "SEL * FROM bench_wide"
)

// wideRows generates the backend's rows: every nullable column is NULL in
// about a tenth of the rows.
func wideRows(rng *rand.Rand, n int) [][]types.Datum {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789 "
	str := func(min, max int) string {
		b := make([]byte, min+rng.Intn(max-min+1))
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return string(b)
	}
	rows := make([][]types.Datum, n)
	for i := range rows {
		row := []types.Datum{
			types.NewInt(int64(i + 1)),
			types.NewBigInt(rng.Int63()),
			types.NewBigInt(int64(rng.Intn(1 << 20))),
			types.NewFloat(rng.NormFloat64() * 1000),
			types.NewDecimal(int64(rng.Intn(1e9))*100, 4),
			types.NewDate(1990+rng.Intn(40), 1+rng.Intn(12), 1+rng.Intn(28)),
			types.NewTimestamp(int64(rng.Intn(2e9)) * 1e6),
			types.NewString(str(4, 20)),
			types.NewString(str(30, 50)), types.NewString(str(30, 50)), types.NewString(str(30, 50)),
			types.NewString(str(30, 50)), types.NewString(str(30, 50)),
		}
		for c := 1; c < len(row); c++ {
			if rng.Intn(10) == 0 {
				row[c] = types.NewNull(row[c].K)
			}
		}
		rows[i] = row
	}
	return rows
}

// wideFixture adds the wide table and its rows to a workload.
func wideFixture(w *Workload, rng *rand.Rand, rows int) {
	w.GatewaySchema += wideGatewayDDL
	w.EngineDDL = append(append([]string(nil), w.EngineDDL...), wideEngineDDL)
	w.EngineRows = map[string][][]types.Datum{"bench_wide": wideRows(rng, rows)}
}

// resultStream: one exact-hit query returning the whole wide table.
// Translation is a cache lookup; decoding, converting and re-encoding rows
// is all of the work.
func resultStream(rng *rand.Rand, clients, rows int) *Workload {
	w := &Workload{Name: ResultStream}
	wideFixture(w, rng, rows)
	w.Texts, w.Record = []string{wideQuery}, []int32{0}
	for c := 0; c < clients; c++ {
		w.Streams = append(w.Streams, []int32{0})
	}
	return w
}
