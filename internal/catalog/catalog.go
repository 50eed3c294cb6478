// Package catalog holds the metadata layer shared by the Hyper-Q gateway and
// the cloud-engine substrate: table, view and macro definitions, plus the
// gateway-side "DTM catalog" the paper uses to remember column properties the
// target system cannot represent (Table 2, "Unsupported column properties").
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"hyperq/internal/types"
)

// Column describes one table column.
type Column struct {
	Name string
	Type types.T
	// NotNull marks a NOT NULL constraint.
	NotNull bool
	// Default is the textual default expression, if any. Non-constant
	// defaults are one of the "unsupported column properties" Hyper-Q keeps
	// in its own catalog when the target cannot store them.
	Default string
	// CaseInsensitive marks Teradata NOT CASESPECIFIC text columns.
	CaseInsensitive bool
}

// TableKind distinguishes persistent tables from the temporary flavors the
// dialects support.
type TableKind uint8

// Table kinds.
const (
	KindPersistent TableKind = iota
	// KindGlobalTemporary is a Teradata Global Temporary Table: the
	// definition is persistent, the contents are per session.
	KindGlobalTemporary
	// KindVolatile is a session-scoped table (Teradata VOLATILE, or the
	// engine-side TEMP tables Hyper-Q creates during emulation).
	KindVolatile
)

// Table is a table definition.
type Table struct {
	Name    string
	Columns []Column
	Kind    TableKind
	// Set reports Teradata SET semantics (duplicate rows rejected). Targets
	// without set tables emulate this with unique constraints; the binder
	// records the property here.
	Set bool
	// PrimaryIndex lists the column names of the primary index, if any.
	PrimaryIndex []string
	// key and keys hold the Key of the table's and each column's name,
	// computed once when the table is registered; empty for a definition no
	// catalog has stored.
	key  string
	keys []string
}

// NameKey returns the Key of the table's name.
func (t *Table) NameKey() string {
	if t.key != "" {
		return t.key
	}
	return Key(t.Name)
}

// ColumnKey returns the Key of column i's name.
func (t *Table) ColumnKey(i int) string {
	if t.keys != nil {
		return t.keys[i]
	}
	return Key(t.Columns[i].Name)
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i := range t.Columns {
		if strings.EqualFold(t.Columns[i].Name, name) {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of the table definition.
func (t *Table) Clone() *Table {
	c := *t
	c.Columns = append([]Column(nil), t.Columns...)
	c.PrimaryIndex = append([]string(nil), t.PrimaryIndex...)
	return &c
}

// View is a named stored query. The definition is kept as SQL text in the
// originating dialect and re-bound on reference.
type View struct {
	Name    string
	Columns []string // optional explicit column list
	SQL     string
	// Updatable marks views eligible for the DML-on-views emulation.
	Updatable bool
	// BaseTable is the single base table of an updatable view.
	BaseTable string
}

// Macro is a Teradata macro: a named, parameterized sequence of SQL
// statements. Targets without macros require mid-tier emulation (§7.1: 79.1%
// of Customer 2's queries call macros).
type Macro struct {
	Name   string
	Params []MacroParam
	// Body is the raw statement list between the BEGIN/END (or parenthesized
	// form), still in the source dialect. Parameters appear as :name.
	Body string
}

// MacroParam is a single macro parameter.
type MacroParam struct {
	Name string
	Type types.T
}

// Catalog is a concurrency-safe metadata store. A Catalog instance backs the
// cloud engine; the Hyper-Q gateway keeps a second, gateway-side Catalog for
// objects the target cannot represent (macros, column properties).
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	views  map[string]*View
	macros map[string]*Macro
	// version is a monotonic counter bumped by every successful DDL/macro
	// mutation. Consumers (the gateway translation cache) embed it in cache
	// keys so plans translated against stale metadata can never be served.
	version uint64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables: make(map[string]*Table),
		views:  make(map[string]*View),
		macros: make(map[string]*Macro),
	}
}

// Key returns the case-folded form under which names are stored and
// compared: strings.ToUpper, which returns an already upper-case ASCII name
// as it is.
func Key(name string) string { return strings.ToUpper(name) }

// FoldEqual reports whether Key(name) == key without allocating when name is
// ASCII.
func FoldEqual(key, name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			return Key(name) == key
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		// The ASCII prefix folds byte for byte, so a mismatch in it is final.
		if i >= len(key) || key[i] != c {
			return false
		}
	}
	return len(name) == len(key)
}

// lookup indexes m by Key(name). An ASCII name of up to 64 bytes is folded
// into a stack buffer: indexing a map by string(b) does not copy b.
func lookup[V any](m map[string]V, name string) (V, bool) {
	var buf [64]byte
	if len(name) <= len(buf) {
		n := 0
		for ; n < len(name); n++ {
			c := name[n]
			if c >= utf8.RuneSelf {
				break
			}
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			buf[n] = c
		}
		if n == len(name) {
			v, ok := m[string(buf[:n])]
			return v, ok
		}
	}
	v, ok := m[Key(name)]
	return v, ok
}

// CreateTable registers a table definition.
func (c *Catalog) CreateTable(t *Table) error {
	if len(t.Columns) == 0 {
		return fmt.Errorf("catalog: table %s has no columns", t.Name)
	}
	keys := make([]string, len(t.Columns))
	seen := make(map[string]bool, len(t.Columns))
	for i, col := range t.Columns {
		k := Key(col.Name)
		if seen[k] {
			return fmt.Errorf("catalog: duplicate column %s in table %s", col.Name, t.Name)
		}
		seen[k] = true
		keys[i] = k
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := Key(t.Name)
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("catalog: table %s already exists", t.Name)
	}
	if _, ok := c.views[k]; ok {
		return fmt.Errorf("catalog: %s already exists as a view", t.Name)
	}
	stored := t.Clone()
	stored.key, stored.keys = k, keys
	c.tables[k] = stored
	c.version++
	return nil
}

// DropTable removes a table definition.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := Key(name)
	if _, ok := c.tables[k]; !ok {
		return fmt.Errorf("catalog: table %s does not exist", name)
	}
	delete(c.tables, k)
	c.version++
	return nil
}

// Table looks up a table definition.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return lookup(c.tables, name)
}

// Tables returns all table names in sorted order.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// CreateView registers a view.
func (c *Catalog) CreateView(v *View) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := Key(v.Name)
	if _, ok := c.views[k]; ok {
		return fmt.Errorf("catalog: view %s already exists", v.Name)
	}
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("catalog: %s already exists as a table", v.Name)
	}
	cp := *v
	c.views[k] = &cp
	c.version++
	return nil
}

// DropView removes a view.
func (c *Catalog) DropView(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := Key(name)
	if _, ok := c.views[k]; !ok {
		return fmt.Errorf("catalog: view %s does not exist", name)
	}
	delete(c.views, k)
	c.version++
	return nil
}

// View looks up a view.
func (c *Catalog) View(name string) (*View, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return lookup(c.views, name)
}

// CreateMacro registers a macro (REPLACE semantics when replace is true).
func (c *Catalog) CreateMacro(m *Macro, replace bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := Key(m.Name)
	if _, ok := c.macros[k]; ok && !replace {
		return fmt.Errorf("catalog: macro %s already exists", m.Name)
	}
	cp := *m
	cp.Params = append([]MacroParam(nil), m.Params...)
	c.macros[k] = &cp
	c.version++
	return nil
}

// DropMacro removes a macro.
func (c *Catalog) DropMacro(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := Key(name)
	if _, ok := c.macros[k]; !ok {
		return fmt.Errorf("catalog: macro %s does not exist", name)
	}
	delete(c.macros, k)
	c.version++
	return nil
}

// Macro looks up a macro.
func (c *Catalog) Macro(name string) (*Macro, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return lookup(c.macros, name)
}

// Macros returns all macro names in sorted order.
func (c *Catalog) Macros() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.macros))
	for _, m := range c.macros {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// Version returns the monotonic mutation counter: it increases on every
// successful CREATE/DROP/REPLACE of a table, view, or macro. Two reads
// returning the same value guarantee the metadata did not change in between.
func (c *Catalog) Version() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// Clone returns a deep copy of the catalog; used to give each engine session
// an isolated view of global-temporary definitions.
func (c *Catalog) Clone() *Catalog {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := New()
	for k, t := range c.tables {
		n.tables[k] = t.Clone()
	}
	for k, v := range c.views {
		cp := *v
		n.views[k] = &cp
	}
	for k, m := range c.macros {
		cp := *m
		n.macros[k] = &cp
	}
	return n
}
