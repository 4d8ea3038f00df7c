// Package query defines SELECT-PROJECT-JOIN query blocks, the unit of
// optimization in System R style optimizers and in the LEC paper. A Block
// names the relations to join, the equi-join predicates between them,
// local filter predicates, and an optional required output order.
package query

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"lecopt/internal/catalog"
)

// Validation errors.
var (
	errNoTables     = errors.New("query: block references no tables")
	ErrDupTable     = errors.New("query: duplicate table in FROM")
	ErrUnknownTable = errors.New("query: table not in FROM list")
	errSelfJoin     = errors.New("query: join predicate must span two distinct tables")
	errTooMany      = errors.New("query: too many tables for the optimizer's bitmask")
)

// MaxTables bounds the number of relations in one block; the optimizer's
// dynamic program indexes subsets with a 64-bit mask.
const MaxTables = 24

// ColRef names a column of a specific table.
type ColRef struct {
	Table  string
	Column string
}

func (c ColRef) String() string { return c.Table + "." + c.Column }

// Join is an equi-join predicate Left = Right between two tables.
type Join struct {
	Left  ColRef
	Right ColRef
}

func (j Join) String() string { return j.Left.String() + " = " + j.Right.String() }

// Filter is a local predicate "Col op Value" on a single table.
type Filter struct {
	Col   ColRef
	Op    catalog.CmpOp
	Value float64
}

func (f Filter) String() string {
	// Decimal (never exponent) notation keeps the rendering inside the
	// sqlmini grammar, so String() output re-parses for any value the
	// parser itself can produce (non-negative finite) — a round-trip the
	// FuzzParse harness checks. Negative values, only constructible
	// programmatically, still render but are outside that grammar.
	return fmt.Sprintf("%s %s %s", f.Col, f.Op, strconv.FormatFloat(f.Value, 'f', -1, 64))
}

// Block is one SPJ query block. Blocks are treated as immutable once
// handed to the optimizer: Canonical memoizes its signature on first use.
// A block obtained from an optimizer handle (Prepared.Block, or the one a
// SQL-text request resolves to) is shared: the handle's statement memo
// serves the same *Block to every request with that text, concurrently, so
// it must never be written to — Clone it to derive a variant.
type Block struct {
	Tables  []string
	Joins   []Join
	Filters []Filter
	OrderBy *ColRef // optional required output order (ascending)

	// canon caches Canonical's result. Mutating a block after its first
	// Canonical call would serve the stale signature; clone instead.
	canon atomic.Pointer[string]
}

// Validate checks the block against a catalog: every table exists and is
// unique, every referenced column exists, and join predicates span two
// distinct FROM tables. It reads table and column names only, never a
// statistic, so the verdict holds for every catalog with the same schema
// (catalog.AppendSchemaDigest).
func (b *Block) Validate(cat *catalog.Catalog) error {
	if len(b.Tables) == 0 {
		return errNoTables
	}
	if len(b.Tables) > MaxTables {
		return fmt.Errorf("%w: %d > %d", errTooMany, len(b.Tables), MaxTables)
	}
	// At most MaxTables names: a scan of the FROM list beats a map, and the
	// resolved tables are kept so a column reference costs one lookup.
	var resolved [MaxTables]*catalog.Table
	for i, name := range b.Tables {
		if b.TableIndex(name) < i {
			return fmt.Errorf("%w: %s", ErrDupTable, name)
		}
		t, err := cat.Table(name)
		if err != nil {
			return err
		}
		resolved[i] = t
	}
	for _, j := range b.Joins {
		if j.Left.Table == j.Right.Table {
			return fmt.Errorf("%w: %s", errSelfJoin, j)
		}
		if err := b.checkCol(&resolved, j.Left); err != nil {
			return err
		}
		if err := b.checkCol(&resolved, j.Right); err != nil {
			return err
		}
	}
	for _, f := range b.Filters {
		if err := b.checkCol(&resolved, f.Col); err != nil {
			return err
		}
	}
	if b.OrderBy != nil {
		if err := b.checkCol(&resolved, *b.OrderBy); err != nil {
			return err
		}
	}
	return nil
}

// checkCol resolves one column reference against the FROM list's tables.
func (b *Block) checkCol(resolved *[MaxTables]*catalog.Table, c ColRef) error {
	i := b.TableIndex(c.Table)
	if i < 0 {
		return fmt.Errorf("%w: %s", ErrUnknownTable, c.Table)
	}
	_, err := resolved[i].Column(c.Column)
	return err
}

// TableIndex returns the position of a table in the FROM list, or -1.
func (b *Block) TableIndex(name string) int {
	for i, t := range b.Tables {
		if t == name {
			return i
		}
	}
	return -1
}

// FiltersOn returns the local predicates on one table.
func (b *Block) FiltersOn(table string) []Filter {
	var out []Filter
	for _, f := range b.Filters {
		if f.Col.Table == table {
			out = append(out, f)
		}
	}
	return out
}

// Connected reports whether the join graph over the FROM tables is
// connected. System R (and the paper) assume a join predicate between
// every pair "or a trivially true predicate"; a disconnected graph forces
// cross products, which the optimizer permits but flags.
func (b *Block) Connected() bool {
	n := len(b.Tables)
	if n <= 1 {
		return n == 1
	}
	adj := make(map[string][]string)
	for _, j := range b.Joins {
		adj[j.Left.Table] = append(adj[j.Left.Table], j.Right.Table)
		adj[j.Right.Table] = append(adj[j.Right.Table], j.Left.Table)
	}
	seen := map[string]bool{b.Tables[0]: true}
	stack := []string{b.Tables[0]}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return len(seen) == n
}

// String renders the block as pseudo-SQL.
func (b *Block) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT * FROM ")
	sb.WriteString(strings.Join(b.Tables, ", "))
	var preds []string
	for _, j := range b.Joins {
		preds = append(preds, j.String())
	}
	for _, f := range b.Filters {
		preds = append(preds, f.String())
	}
	if len(preds) > 0 {
		sb.WriteString(" WHERE ")
		sb.WriteString(strings.Join(preds, " AND "))
	}
	if b.OrderBy != nil {
		sb.WriteString(" ORDER BY ")
		sb.WriteString(b.OrderBy.String())
	}
	return sb.String()
}

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	out := &Block{
		Tables:  append([]string(nil), b.Tables...),
		Joins:   append([]Join(nil), b.Joins...),
		Filters: append([]Filter(nil), b.Filters...),
	}
	if b.OrderBy != nil {
		ob := *b.OrderBy
		out.OrderBy = &ob
	}
	return out
}

// Canonical returns a deterministic signature for deduplication in
// workload generators and for plan-cache keys: sorted tables and
// predicates. The signature is computed once per block and memoized —
// it sits on the serving hot path, where rebuilding it would dominate
// cache-key construction.
func (b *Block) Canonical() string {
	if s := b.canon.Load(); s != nil {
		return *s
	}
	sig := b.canonical()
	b.canon.Store(&sig)
	return sig
}

func (b *Block) canonical() string {
	tables := append([]string(nil), b.Tables...)
	sort.Strings(tables)
	joins := make([]string, len(b.Joins))
	for i, j := range b.Joins {
		l, r := j.Left.String(), j.Right.String()
		if l > r {
			l, r = r, l
		}
		joins[i] = l + "=" + r
	}
	sort.Strings(joins)
	filters := make([]string, len(b.Filters))
	for i, f := range b.Filters {
		filters[i] = f.String()
	}
	sort.Strings(filters)
	sig := strings.Join(tables, ",") + "|" + strings.Join(joins, "&") + "|" + strings.Join(filters, "&")
	if b.OrderBy != nil {
		sig += "|order=" + b.OrderBy.String()
	}
	return sig
}
