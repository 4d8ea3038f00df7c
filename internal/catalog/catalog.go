// Package catalog implements the database catalog substrate the optimizer
// reads: tables with page/row counts, columns with domain statistics, and
// secondary indexes.
//
// The LEC paper (Chu, Halpern, Seshadri, PODS 1999) assumes "the DBMS in
// practice is constantly gathering statistical information"; this package
// is that statistics store. It supplies the point estimates the classical
// LSC optimizer uses and the raw material (distinct counts, domains)
// from which the LEC algorithms derive their parameter distributions.
package catalog

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Errors returned by catalog operations.
var (
	errDupTable  = errors.New("catalog: duplicate table")
	errDupColumn = errors.New("catalog: duplicate column")
	errDupIndex  = errors.New("catalog: duplicate index")
	ErrNoTable   = errors.New("catalog: no such table")
	ErrNoColumn  = errors.New("catalog: no such column")
	errNoIndex   = errors.New("catalog: no such index")
	ErrBadStats  = errors.New("catalog: invalid statistics")
)

// ColumnType is the logical type of a column. The optimizer only needs
// numeric ordering, so strings are modeled by their collation rank.
type ColumnType uint8

// Column types.
const (
	TypeInt ColumnType = iota
	TypeFloat
	TypeString
)

func (t ColumnType) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeString:
		return "string"
	default:
		return fmt.Sprintf("ColumnType(%d)", uint8(t))
	}
}

// Column describes one attribute of a table together with its statistics.
type Column struct {
	Name     string
	Type     ColumnType
	Distinct float64 // number of distinct values (≥1 for non-empty tables)
	Min, Max float64 // numeric domain bounds (collation rank for strings)
}

// Table describes a stored relation.
type Table struct {
	Name    string
	Pages   float64 // size in disk pages — the |A| of the paper's formulas
	Rows    float64
	columns []Column
	byName  map[string]int
}

// Index describes a secondary B+-tree index over a single column.
type Index struct {
	Name      string
	Table     string
	Column    string
	Clustered bool
	Height    float64 // non-leaf levels traversed per probe
}

// Catalog is a collection of tables and indexes. The zero value is empty
// and ready to use via AddTable/AddIndex.
type Catalog struct {
	tables  map[string]*Table
	indexes map[string]*Index
	byTable map[string][]Index

	// fpMemo memoizes the fingerprint digests between mutations as an
	// immutable snapshot: concurrent optimizations sharing a read-only
	// catalog find their digest with one atomic load. fpMu serializes the
	// writers only — a first computation, which publishes the snapshot
	// extended by one entry, and invalidation, which publishes nil.
	fpMu   sync.Mutex
	fpMemo atomic.Pointer[[]fpDigest]
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:  make(map[string]*Table),
		indexes: make(map[string]*Index),
		byTable: make(map[string][]Index),
	}
}

// NewTable builds a table with validated statistics. TuplesPerPage is
// derived as Rows/Pages.
func NewTable(name string, pages, rows float64, cols ...Column) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty table name", ErrBadStats)
	}
	if !(pages > 0 && rows > 0) || math.IsInf(pages, 1) || math.IsInf(rows, 1) {
		return nil, fmt.Errorf("%w: table %s must have positive, finite pages and rows", ErrBadStats, name)
	}
	t := &Table{Name: name, Pages: pages, Rows: rows, byName: make(map[string]int)}
	for _, c := range cols {
		if err := t.addColumn(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustTable is NewTable but panics on error; for static schemas and tests.
func MustTable(name string, pages, rows float64, cols ...Column) *Table {
	t, err := NewTable(name, pages, rows, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Table) addColumn(c Column) error {
	if c.Name == "" {
		return fmt.Errorf("%w: empty column name on table %s", ErrBadStats, t.Name)
	}
	if _, ok := t.byName[c.Name]; ok {
		return fmt.Errorf("%w: %s.%s", errDupColumn, t.Name, c.Name)
	}
	if !(c.Distinct > 0) || math.IsInf(c.Distinct, 1) {
		return fmt.Errorf("%w: %s.%s distinct must be positive and finite", ErrBadStats, t.Name, c.Name)
	}
	if math.IsNaN(c.Min) || math.IsInf(c.Min, 0) || math.IsNaN(c.Max) || math.IsInf(c.Max, 0) {
		return fmt.Errorf("%w: %s.%s min and max must be finite", ErrBadStats, t.Name, c.Name)
	}
	if c.Max < c.Min {
		return fmt.Errorf("%w: %s.%s max < min", ErrBadStats, t.Name, c.Name)
	}
	t.byName[c.Name] = len(t.columns)
	t.columns = append(t.columns, c)
	return nil
}

// Column returns the named column.
func (t *Table) Column(name string) (Column, error) {
	i, ok := t.byName[name]
	if !ok {
		return Column{}, fmt.Errorf("%w: %s.%s", ErrNoColumn, t.Name, name)
	}
	return t.columns[i], nil
}

// Columns returns the table's columns in declaration order.
func (t *Table) Columns() []Column {
	return append([]Column(nil), t.columns...)
}

// TuplesPerPage returns the average tuple density.
func (t *Table) TuplesPerPage() float64 { return t.Rows / t.Pages }

// AddTable registers a table.
func (c *Catalog) AddTable(t *Table) error {
	if _, ok := c.tables[t.Name]; ok {
		return fmt.Errorf("%w: %s", errDupTable, t.Name)
	}
	c.tables[t.Name] = t
	c.InvalidateFingerprint()
	return nil
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t, nil
}

// HasTable reports whether the table exists.
func (c *Catalog) HasTable(name string) bool {
	_, ok := c.tables[name]
	return ok
}

// TableNames returns all table names, sorted.
func (c *Catalog) TableNames() []string {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddIndex registers an index after validating its target.
func (c *Catalog) AddIndex(ix Index) error {
	if ix.Name == "" {
		return fmt.Errorf("%w: empty index name", ErrBadStats)
	}
	if _, ok := c.indexes[ix.Name]; ok {
		return fmt.Errorf("%w: %s", errDupIndex, ix.Name)
	}
	t, err := c.Table(ix.Table)
	if err != nil {
		return err
	}
	if _, err := t.Column(ix.Column); err != nil {
		return err
	}
	if ix.Height < 0 {
		return fmt.Errorf("%w: index %s height negative", ErrBadStats, ix.Name)
	}
	stored := ix
	c.indexes[ix.Name] = &stored
	c.byTable[ix.Table] = append(c.byTable[ix.Table], stored)
	c.InvalidateFingerprint()
	return nil
}

// Index returns the named index.
func (c *Catalog) Index(name string) (Index, error) {
	ix, ok := c.indexes[name]
	if !ok {
		return Index{}, fmt.Errorf("%w: %s", errNoIndex, name)
	}
	return *ix, nil
}

// IndexesOn returns the indexes declared on a table (order of creation).
// The slice is the catalog's own, so listing them allocates nothing; the
// caller must not modify it.
func (c *Catalog) IndexesOn(table string) []Index {
	return slices.Clip(c.byTable[table])
}

// IndexOn returns the first index on the given table column, if any.
func (c *Catalog) IndexOn(table, column string) (Index, bool) {
	for _, p := range c.byTable[table] {
		if p.Column == column {
			return p, true
		}
	}
	return Index{}, false
}
