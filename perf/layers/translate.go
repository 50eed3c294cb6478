package layers

import (
	"time"

	"hyperq/internal/binder"
	"hyperq/internal/catalog"
	"hyperq/internal/dialect"
	"hyperq/internal/feature"
	"hyperq/internal/fingerprint"
	"hyperq/internal/parser"
	"hyperq/internal/serializer"
	"hyperq/internal/sqlast"
	"hyperq/internal/transform"
	"hyperq/internal/types"
	"hyperq/internal/xtra"
)

// colSlack is added to the binder's highest column id when a transformation
// context is built outside the gateway: the id a context mints from only has
// to be above every id already in the plan.
const colSlack = 1 << 16

// stmtInputs is one request text prepared for each translation layer: the
// text for the parser, its AST for the fingerprinter and binder, the bound
// plan for the transformer, the transformed plan for the serializer, and the
// cache template for instantiation.
type stmtInputs struct {
	sql    string
	ast    sqlast.Statement
	bound  xtra.Statement
	maxCol xtra.ColumnID
	mid    xtra.Statement
	tpl    fingerprint.Template
	lits   []types.Datum
	hasTpl bool
}

// translatable prepares the single-statement request texts that go through
// the translate pipeline against the global catalog. Emulated statements
// (macro calls, HELP, transaction control), multi-statement requests and
// statements over session-scoped tables are left out; the count that remains
// is each translation metric's sample base.
func translatable(texts []string, cat *catalog.Catalog, target *dialect.Profile) []stmtInputs {
	var out []stmtInputs
	for _, sql := range texts {
		stmts, err := parser.Parse(sql, parser.Teradata, nil)
		if err != nil || len(stmts) != 1 {
			continue
		}
		switch stmts[0].(type) {
		case *sqlast.SelectStmt, *sqlast.InsertStmt, *sqlast.UpdateStmt, *sqlast.DeleteStmt:
		default:
			continue
		}
		in := stmtInputs{sql: sql, ast: stmts[0]}
		fp := fingerprint.Statement(in.ast)
		b := binder.New(cat, parser.Teradata, nil)
		if in.bound, err = b.Bind(in.ast); err != nil {
			continue
		}
		in.maxCol = b.MaxColumnID()
		ctx := transform.NewContext(nil, nil, in.maxCol)
		if in.mid, err = transform.BindingStage().Statement(in.bound, ctx); err != nil {
			continue
		}
		if fp.Cacheable {
			marked, err := serializer.New(target, nil).LiftLiterals().Serialize(in.mid)
			if err == nil {
				in.tpl, _ = fingerprint.ParseTemplate(marked, len(fp.Literals))
				in.lits, in.hasTpl = fp.Literals, in.tpl.Valid()
			}
		}
		out = append(out, in)
	}
	return out
}

// ParserParse times parser.ParseWith over the request texts with one reused
// Scratch arena, the way a session parses.
func ParserParse(budget time.Duration, in []stmtInputs) []Metric {
	var sc parser.Scratch
	var chars int
	for i := range in {
		chars += len(in[i].sql)
	}
	c := measure(budget, len(in), func() {
		for i := range in {
			sc.Reset()
			if _, err := parser.ParseWith(in[i].sql, parser.Teradata, nil, &sc); err != nil {
				panic(err) // translatable() parsed the same text
			}
		}
	})
	bytesPerStmt := float64(chars) / float64(len(in))
	return []Metric{
		{"parser.parse.ns_per_stmt", c.ns, "ns/stmt", c.ops},
		{"parser.parse.allocs_per_stmt", c.allocs, "allocs/stmt", c.ops},
		{"parser.parse.mb_per_s", bytesPerStmt / c.ns * 1e3, "MB/s", c.ops},
	}
}

// Fingerprint times the three fingerprint entry points the request path
// uses: Statement on the AST, Template.Instantiate on a fingerprint hit, and
// TemplateHash on the raw text (the workload-statistics key).
func Fingerprint(budget time.Duration, in []stmtInputs) []Metric {
	st := measure(budget/3, len(in), func() {
		for i := range in {
			fingerprint.Statement(in[i].ast)
		}
	})
	var tpls []stmtInputs
	for i := range in {
		if in[i].hasTpl {
			tpls = append(tpls, in[i])
		}
	}
	var inst cost
	if len(tpls) > 0 {
		inst = measure(budget/3, len(tpls), func() {
			for i := range tpls {
				_ = tpls[i].tpl.Instantiate(tpls[i].lits)
			}
		})
	}
	th := measure(budget/3, len(in), func() {
		for i := range in {
			fingerprint.TemplateHash(in[i].sql)
		}
	})
	return []Metric{
		{"fingerprint.statement.ns_per_stmt", st.ns, "ns/stmt", st.ops},
		{"fingerprint.instantiate.ns_per_stmt", inst.ns, "ns/stmt", inst.ops},
		{"fingerprint.instantiate.allocs_per_stmt", inst.allocs, "allocs/stmt", inst.ops},
		{"fingerprint.template_hash.ns_per_stmt", th.ns, "ns/stmt", th.ops},
	}
}

// BinderBind times binder.Bind over the prepared ASTs.
func BinderBind(budget time.Duration, in []stmtInputs, cat *catalog.Catalog) []Metric {
	c := measure(budget, len(in), func() {
		for i := range in {
			if _, err := binder.New(cat, parser.Teradata, nil).Bind(in[i].ast); err != nil {
				panic(err)
			}
		}
	})
	return []Metric{
		{"binder.bind.ns_per_stmt", c.ns, "ns/stmt", c.ops},
		{"binder.bind.allocs_per_stmt", c.allocs, "allocs/stmt", c.ops},
	}
}

// TransformStatement times the two transformation stages a statement passes
// on its way to the target: the binding stage, then the target's
// serialization stage. The rule count is exact: it is the number of features
// the two contexts recorded, summed over one pass of the statements.
func TransformStatement(budget time.Duration, in []stmtInputs, target *dialect.Profile) []Metric {
	ser := transform.New(transform.SerializationStage(target)...)
	var fired int
	count := true
	c := measure(budget, len(in), func() {
		for i := range in {
			rec := &feature.Recorder{}
			c1 := transform.NewContext(nil, rec, in[i].maxCol)
			mid, err := transform.BindingStage().Statement(in[i].bound, c1)
			if err != nil {
				panic(err)
			}
			c2 := transform.NewContext(target, rec, in[i].maxCol+colSlack)
			if _, err := ser.Statement(mid, c2); err != nil {
				panic(err)
			}
			if count {
				fired += len(c1.Fired().IDs()) + len(c2.Fired().IDs())
			}
		}
		count = false
	})
	return []Metric{
		{"transform.statement.ns_per_stmt", c.ns, "ns/stmt", c.ops},
		{"transform.statement.allocs_per_stmt", c.allocs, "allocs/stmt", c.ops},
		{"transform.rules_fired_per_stmt", float64(fired) / float64(len(in)), "count/stmt", int64(len(in))},
	}
}

// SerializerSerialize times Serializer.Serialize (which includes the
// target's serialization-stage rules, as in the gateway) over the
// binding-stage output.
func SerializerSerialize(budget time.Duration, in []stmtInputs, target *dialect.Profile) []Metric {
	var outBytes int
	count := true
	c := measure(budget, len(in), func() {
		for i := range in {
			sql, err := serializer.New(target, nil).Serialize(in[i].mid)
			if err != nil {
				panic(err)
			}
			if count {
				outBytes += len(sql)
			}
		}
		count = false
	})
	return []Metric{
		{"serializer.serialize.ns_per_stmt", c.ns, "ns/stmt", c.ops},
		{"serializer.serialize.allocs_per_stmt", c.allocs, "allocs/stmt", c.ops},
		{"serializer.serialize.out_bytes_per_stmt", float64(outBytes) / float64(len(in)), "B/stmt", int64(len(in))},
	}
}
