// Package feature implements the rewrite-feature instrumentation the paper
// uses for its customer workload study (§7.1): a registry of 27 commonly
// used non-standard features — 9 per rewrite class (translation,
// transformation, emulation) — and a Recorder that the parser, binder,
// transformer, serializer and emulation layers report into while processing
// a request.
package feature

import "fmt"

// Class is the rewrite difficulty class from §2.1.
type Class uint8

// Rewrite classes.
const (
	// ClassTranslation covers simple, localized keyword/function renames.
	ClassTranslation Class = iota
	// ClassTransformation covers rewrites that need full query structure,
	// name resolution and type derivation.
	ClassTransformation
	// ClassEmulation covers features that must be decomposed into multiple
	// requests plus mid-tier state.
	ClassEmulation
)

func (c Class) String() string {
	switch c {
	case ClassTranslation:
		return "Translation"
	case ClassTransformation:
		return "Transformation"
	case ClassEmulation:
		return "Emulation"
	}
	return "?"
}

// Classes lists the classes in presentation order.
var Classes = []Class{ClassTranslation, ClassTransformation, ClassEmulation}

// ID identifies one tracked feature.
type ID uint8

// The 27 tracked features, 9 per class, mirroring the §7.1 instrumentation.
const (
	// Translation class: keyword and built-in renames.
	SelAbbrev    ID = iota // SEL/INS/UPD/DEL keyword shortcuts
	BtEt                   // BT/ET transaction shortcuts
	CharsFunc              // CHARS/CHARACTERS -> CHAR_LENGTH
	ZeroIfNull             // ZEROIFNULL(x) -> COALESCE(x, 0)
	NullIfZero             // NULLIFZERO(x) -> NULLIF(x, 0)
	IndexFunc              // INDEX(s, t) -> POSITION(t IN s)
	AddMonths              // ADD_MONTHS -> target-specific date arithmetic
	ModOperator            // infix x MOD y -> MOD(x, y) / x % y
	CollectStats           // COLLECT STATISTICS -> eliminated

	// Transformation class: structural rewrites.
	Qualify        // QUALIFY clause -> window project + filter
	TdRank         // RANK(expr DESC) vendor window form
	ImplicitJoin   // tables referenced but missing from FROM
	NamedExprRef   // reference to a named expression in the same block
	OrdinalGroupBy // GROUP BY / ORDER BY column positions
	GroupingSets   // ROLLUP/CUBE -> UNION ALL of simple GROUP BYs
	DateIntCompare // DATE/INT comparison via internal encoding
	DateArith      // DATE +/- integer arithmetic
	VectorSubquery // (a, b) > ANY (SELECT x, y ...) vector comparison

	// Emulation class: mid-tier decomposition with state.
	Macro           // CREATE MACRO / EXEC
	RecursiveQuery  // WITH RECURSIVE via WorkTable/TempTable loop
	Merge           // MERGE -> UPDATE + INSERT decomposition
	HelpSession     // HELP SESSION informational command
	HelpTable       // HELP TABLE informational command
	DmlOnView       // DML against updatable views
	GlobalTempTable // GLOBAL TEMPORARY table semantics
	SetTable        // SET table duplicate-row elimination
	MultiStatement  // multi-statement request control flow

	numFeatures
)

// Count is the number of tracked features.
const Count = int(numFeatures)

// PerClass is the number of tracked features per class.
const PerClass = 9

// Info describes one tracked feature.
type Info struct {
	ID    ID
	Name  string
	Class Class
	// Component names the Hyper-Q component that implements the rewrite
	// (Table 2's "Component" column).
	Component string
	Desc      string
}

var infos = [Count]Info{
	{SelAbbrev, "SEL/DEL/INS/UPD", ClassTranslation, "Parser", "keyword shortcuts replaced by full keywords"},
	{BtEt, "BT/ET", ClassTranslation, "Parser", "transaction shortcuts mapped to BEGIN/COMMIT"},
	{CharsFunc, "CHARS", ClassTranslation, "Serializer", "string length builtin renamed per target"},
	{ZeroIfNull, "ZEROIFNULL", ClassTranslation, "Parser", "rewritten to COALESCE(x, 0)"},
	{NullIfZero, "NULLIFZERO", ClassTranslation, "Parser", "rewritten to NULLIF(x, 0)"},
	{IndexFunc, "INDEX", ClassTranslation, "Serializer", "substring search renamed to POSITION"},
	{AddMonths, "ADD_MONTHS", ClassTranslation, "Serializer", "month arithmetic renamed per target"},
	{ModOperator, "MOD operator", ClassTranslation, "Serializer", "infix MOD respelled per target"},
	{CollectStats, "COLLECT STATISTICS", ClassTranslation, "Gateway", "statement eliminated on self-tuning targets"},

	{Qualify, "QUALIFY", ClassTransformation, "Parser", "window predicate lowered to project + filter"},
	{TdRank, "RANK(expr DESC)", ClassTransformation, "Parser", "vendor rank form normalized to ANSI OVER()"},
	{ImplicitJoin, "Implicit joins", ClassTransformation, "Binder", "FROM clause expanded with referenced tables"},
	{NamedExprRef, "Chained projections", ClassTransformation, "Binder", "named expression references inlined"},
	{OrdinalGroupBy, "Ordinal GROUP BY", ClassTransformation, "Binder", "column positions replaced by expressions"},
	{GroupingSets, "OLAP grouping extensions", ClassTransformation, "Transformer", "ROLLUP/CUBE expanded to UNION ALL"},
	{DateIntCompare, "Date-Integer comparison", ClassTransformation, "Transformer", "date side expanded to integer encoding"},
	{DateArith, "Date arithmetics", ClassTransformation, "Transformer", "date +/- int rewritten per target"},
	{VectorSubquery, "Vector subquery", ClassTransformation, "Serializer", "quantified vector comparison to EXISTS"},

	{Macro, "Macros", ClassEmulation, "Binder", "macro body executed in the mid tier"},
	{RecursiveQuery, "Recursive query", ClassEmulation, "Gateway", "WorkTable/TempTable fixpoint loop"},
	{Merge, "MERGE", ClassEmulation, "Gateway", "decomposed into UPDATE + INSERT"},
	{HelpSession, "HELP SESSION", ClassEmulation, "Gateway", "answered from gateway session state"},
	{HelpTable, "HELP TABLE", ClassEmulation, "Gateway", "answered from gateway catalog"},
	{DmlOnView, "DML on views", ClassEmulation, "Binder", "DML re-expressed on the base table"},
	{GlobalTempTable, "Global temporary tables", ClassEmulation, "Gateway", "per-session instantiation of persistent definition"},
	{SetTable, "SET tables", ClassEmulation, "Gateway", "duplicate-row elimination enforced mid-tier"},
	{MultiStatement, "Multi-statement request", ClassEmulation, "Gateway", "statement sequence driven with gateway state"},
}

// Lookup returns the descriptor of a feature.
func Lookup(id ID) Info { return infos[id] }

// ByClass returns the descriptors of one class.
func ByClass(c Class) []Info {
	out := make([]Info, 0, PerClass)
	for _, f := range infos {
		if f.Class == c {
			out = append(out, f)
		}
	}
	return out
}

// Set is a bitset of tracked features.
type Set uint32

// Add inserts a feature.
func (s *Set) Add(id ID) { *s |= 1 << id }

// Has reports membership.
func (s Set) Has(id ID) bool { return s&(1<<id) != 0 }

// Union merges another set.
func (s *Set) Union(o Set) { *s |= o }

// Empty reports whether no features are present.
func (s Set) Empty() bool { return s == 0 }

// HasClass reports whether any feature of the class is present.
func (s Set) HasClass(c Class) bool {
	for _, f := range infos {
		if f.Class == c && s.Has(f.ID) {
			return true
		}
	}
	return false
}

// IDs returns the members in declaration order.
func (s Set) IDs() []ID {
	var out []ID
	for id := ID(0); id < numFeatures; id++ {
		if s.Has(id) {
			out = append(out, id)
		}
	}
	return out
}

// Recorder accumulates the features observed while rewriting a single
// request. A nil *Recorder is valid and records nothing, so the rewrite
// pipeline can run uninstrumented at zero cost.
type Recorder struct {
	set Set
}

// Record notes that the feature fired. Safe on a nil receiver.
func (r *Recorder) Record(id ID) {
	if r != nil {
		r.set.Add(id)
	}
}

// Set returns the accumulated feature set.
func (r *Recorder) Set() Set {
	if r == nil {
		return 0
	}
	return r.set
}

// Merge folds a previously recorded set into the recorder. The translation
// cache replays a statement's recorded features on a cache hit so workload
// statistics are independent of cache state. Safe on a nil receiver.
func (r *Recorder) Merge(s Set) {
	if r != nil {
		r.set.Union(s)
	}
}

// Reset clears the recorder for reuse.
func (r *Recorder) Reset() {
	if r != nil {
		r.set = 0
	}
}

func init() {
	// Sanity-check the registry shape the paper specifies: 27 features,
	// 9 per class, IDs in declaration order.
	if Count != 27 {
		panic(fmt.Sprintf("feature: registry has %d features, want 27", Count))
	}
	for _, c := range Classes {
		if n := len(ByClass(c)); n != PerClass {
			panic(fmt.Sprintf("feature: class %s has %d features, want %d", c, n, PerClass))
		}
	}
	for i, f := range infos {
		if int(f.ID) != i {
			panic(fmt.Sprintf("feature: descriptor %d out of order", i))
		}
	}
}
