// Package dialect models the source and target database systems as data: a
// Profile is a capability set plus a few write rules, and the shipped
// systems are rows of one table. Profiles drive the Figure 2 reproduction,
// the serializer's choice of serialization-time rewrites (§5.3: the
// vector-subquery transformation "is system specific ... it needs to be
// triggered right before serialization"), and capability enforcement in the
// cloud-engine substrate, which rejects unsupported constructs like a real
// cloud target would.
package dialect

import (
	"fmt"
	"strings"
)

// Capability names one query feature a system may support natively.
type Capability uint8

// The modeled capabilities. engine.Session.checkCapabilities rejects six of
// them on a target without the bit, and the gateway reads five of those:
// CapRecursive (hyperq.Session.execStatement emulates WITH RECURSIVE),
// CapGlobalTempTables (hyperq.Session.execCreateTable lowers the table to a
// session table), and CapGroupingSets, CapVectorSubquery and CapDateArith
// (transform.SerializationStage adds their rewrite rules). CapSetTables is
// enforcement only: the gateway deduplicates SET-table inserts itself. The
// other 13 bits are Figure 2 data only.
const (
	// CapQualify is the QUALIFY clause.
	CapQualify Capability = iota
	// CapImplicitJoin allows referencing tables absent from FROM.
	CapImplicitJoin
	// CapNamedExprRef allows referencing a select-list alias in the same block.
	CapNamedExprRef
	// CapOrdinalGroupBy allows GROUP BY/ORDER BY column positions.
	CapOrdinalGroupBy
	// CapGroupingSets is native ROLLUP/CUBE/GROUPING SETS.
	CapGroupingSets
	// CapDateIntCompare allows comparing DATE with INTEGER directly.
	CapDateIntCompare
	// CapDateArith allows DATE +/- integer arithmetic.
	CapDateArith
	// CapVectorSubquery is the quantified vector comparison (a,b) > ANY (...).
	CapVectorSubquery
	// CapRecursive is native WITH RECURSIVE.
	CapRecursive
	// CapMerge is the MERGE statement.
	CapMerge
	// CapMacros is stored parameterized statement sequences.
	CapMacros
	// CapSetTables is SET-table duplicate elimination.
	CapSetTables
	// CapGlobalTempTables is GLOBAL TEMPORARY TABLE semantics.
	CapGlobalTempTables
	// CapPeriodType is the compound PERIOD data type.
	CapPeriodType
	// CapDerivedColAliases is a column list on a derived-table alias.
	CapDerivedColAliases
	// CapTop is the TOP n [WITH TIES] clause.
	CapTop
	// CapUpdatableViews allows DML against single-table views.
	CapUpdatableViews
	// CapNullsOrdering is explicit NULLS FIRST/LAST in ORDER BY.
	CapNullsOrdering
	// CapHelpCommands is the HELP SESSION/TABLE informational family.
	CapHelpCommands

	numCapabilities
)

var capNames = [numCapabilities]string{
	"QUALIFY", "Implicit joins", "Named expressions", "Ordinal GROUP BY",
	"OLAP grouping extensions", "Date-Integer comparison", "Date arithmetics",
	"Vector subqueries", "Recursive queries", "MERGE", "Macros", "SET tables",
	"Global temporary tables", "PERIOD type", "Derived table column aliases",
	"TOP clause", "Updatable views", "NULLS ordering", "HELP commands",
}

func (c Capability) String() string {
	if c < numCapabilities {
		return capNames[c]
	}
	return fmt.Sprintf("Capability(%d)", uint8(c))
}

// Figure2Features is the subset of capabilities shown in the paper's
// Figure 2 support matrix.
var Figure2Features = []Capability{
	CapQualify, CapImplicitJoin, CapNamedExprRef, CapOrdinalGroupBy,
	CapGroupingSets, CapDateIntCompare, CapVectorSubquery, CapRecursive,
	CapMerge, CapMacros, CapSetTables, CapDerivedColAliases,
}

// Caps is a capability set, one bit per Capability.
type Caps uint32

// allCaps holds every modeled capability.
const allCaps = Caps(1)<<numCapabilities - 1

// CapsOf returns the set holding exactly cs.
func CapsOf(cs ...Capability) Caps {
	var s Caps
	for _, c := range cs {
		s |= 1 << c
	}
	return s
}

// Has reports whether c is in the set.
func (s Caps) Has(c Capability) bool { return s&(1<<c) != 0 }

// MonthArith selects how ADD_MONTHS serializes.
type MonthArith uint8

const (
	// AddMonthsFunc keeps ADD_MONTHS(d, n).
	AddMonthsFunc MonthArith = iota
	// DateAddMonth writes DATEADD(MONTH, n, d).
	DateAddMonth
)

// Profile describes one database system: a capability set plus the write
// rules the serializer applies when targeting it.
type Profile struct {
	// Name is the marketing-neutral system name.
	Name string
	// Caps is the set of natively supported features.
	Caps Caps
	// MonthArith selects the month-arithmetic spelling.
	MonthArith MonthArith
	// FuncNames maps canonical builtin names to the system's spelling.
	// Unlisted functions keep the canonical name.
	FuncNames map[string]string
}

// Supports reports whether the profile has the capability.
func (p *Profile) Supports(c Capability) bool { return p.Caps.Has(c) }

// FuncName resolves the target spelling of a canonical builtin.
func (p *Profile) FuncName(canonical string) string {
	if n, ok := p.FuncNames[canonical]; ok {
		return n
	}
	return canonical
}

// profiles is the shipped table: the Teradata source model, which supports
// everything, then the four modeled cloud targets in presentation order.
// The cloud mixes follow the 2018-era shape of Figure 2: vendor-specific
// extensions (QUALIFY, implicit joins, named expressions, SET tables,
// macros, vector subqueries) are supported by few or none of the targets,
// while partially standardized features (MERGE, grouping sets, ordinal
// GROUP BY, recursion) are supported by some. The FuncNames maps are
// shared by every copy handed out and must not be written.
var profiles = [...]Profile{
	{Name: "Teradata", Caps: allCaps},
	{Name: "CloudA",
		Caps:      CapsOf(CapOrdinalGroupBy, CapDerivedColAliases, CapNullsOrdering, CapDateArith),
		FuncNames: map[string]string{"CHAR_LENGTH": "LEN", "POSITION": "STRPOS"}},
	{Name: "CloudB",
		Caps:       CapsOf(CapOrdinalGroupBy, CapGroupingSets, CapNullsOrdering),
		MonthArith: DateAddMonth,
		FuncNames:  map[string]string{"SUBSTR": "SUBSTR", "CHAR_LENGTH": "LENGTH", "POSITION": "STRPOS"}},
	{Name: "CloudC",
		Caps:       CapsOf(CapGroupingSets, CapMerge, CapDerivedColAliases, CapTop, CapUpdatableViews),
		MonthArith: DateAddMonth,
		FuncNames:  map[string]string{"CHAR_LENGTH": "LEN", "POSITION": "CHARINDEX"}},
	{Name: "CloudD",
		Caps: CapsOf(CapQualify, CapOrdinalGroupBy, CapGroupingSets, CapRecursive, CapMerge,
			CapDerivedColAliases, CapNullsOrdering, CapTop, CapUpdatableViews, CapDateArith),
		FuncNames: map[string]string{"CHAR_LENGTH": "LENGTH", "POSITION": "POSITION"}},
}

func row(i int) *Profile {
	p := profiles[i]
	return &p
}

// TeradataProfile models the source system: everything is supported.
func TeradataProfile() *Profile { return row(0) }

// CloudA models a columnar MPP warehouse (Redshift-like, 2018).
func CloudA() *Profile { return row(1) }

// CloudB models a serverless query service (BigQuery-like, 2018).
func CloudB() *Profile { return row(2) }

// CloudC models an elastic SQL DW (Azure SQL DW-like, 2018).
func CloudC() *Profile { return row(3) }

// CloudD models a cloud-native elastic warehouse (Snowflake-like).
func CloudD() *Profile { return row(4) }

// CloudTargets lists the modeled cloud systems in presentation order.
func CloudTargets() []*Profile {
	return []*Profile{CloudA(), CloudB(), CloudC(), CloudD()}
}

// Names lists the shipped profiles' names in table order.
func Names() []string {
	out := make([]string, len(profiles))
	for i := range profiles {
		out[i] = profiles[i].Name
	}
	return out
}

// ByName resolves a shipped profile by name, ignoring case.
func ByName(name string) (*Profile, error) {
	for i := range profiles {
		if strings.EqualFold(profiles[i].Name, name) {
			return row(i), nil
		}
	}
	return nil, fmt.Errorf("dialect: unknown profile %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// SupportPct computes, per feature, the percentage of the given targets that
// support it — the Figure 2 measurement.
func SupportPct(features []Capability, targets []*Profile) map[Capability]float64 {
	out := make(map[Capability]float64, len(features))
	for _, f := range features {
		n := 0
		for _, t := range targets {
			if t.Supports(f) {
				n++
			}
		}
		out[f] = 100 * float64(n) / float64(len(targets))
	}
	return out
}
