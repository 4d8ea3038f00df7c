package storage

import (
	"errors"
	"fmt"
	"sort"
)

// Index errors.
var (
	errDupIndex  = errors.New("storage: duplicate index")
	errNoIndex   = errors.New("storage: no such index")
	errBadIndex  = errors.New("storage: invalid index spec")
	errNotSorted = errors.New("storage: clustered index requires a relation sorted on the key")
)

// Index is a B+-tree-shaped secondary index over one integer column of a
// relation, materialized as *paged relations* in the same store the data
// lives in: the leaf level is a relation of (key, page, slot) entries in
// key order, and the internal levels are relations of (separatorKey,
// childPage) entries, root level first. Because index pages are ordinary
// storage pages, the execution engine walks an index through the same
// buffer.Pool it reads data pages through — every root-to-leaf step, leaf
// page and data-page fetch is a counted physical I/O, which is exactly what
// the analytic cost.IndexScanIO formula charges (height + fetches).
//
// A clustered index requires the relation to be stored in key order; its
// range scans then touch each qualifying data page once (the formula's
// ⌈sel·pages⌉). An unclustered index scatters: each qualifying entry
// fetches its own data page (the formula's ⌈sel·rows⌉, minus whatever the
// scan pool's few frames happen to keep resident).
type Index struct {
	Name   string
	Table  string
	Column string

	height    int // number of internal levels above the leaves
	leaves    *Relation
	nodes     *Relation  // all internal levels concatenated, root first
	levels    []nodeSpan // page spans of nodes, root level first
	dataPages int        // relation page count at build time (staleness check)
}

// nodeSpan is one internal level's page range within the nodes relation.
type nodeSpan struct {
	start, count int
}

// Leaf and internal entry layouts within the index relations.
const (
	leafKeyCol  = 0
	leafPageCol = 1
	leafSlotCol = 2
	nodeKeyCol  = 0
	nodeKidCol  = 1
)

// indexEntry is one leaf entry during construction.
type indexEntry struct {
	key  int64
	page int
	slot int
}

// BuildIndex constructs an index named name over table.column with the
// given fanout, registering the index and its node/leaf page relations in
// the store. The page relations are named name+"!leaf" and name+"!node";
// "!" cannot appear in generated or temp relation names, so they never
// collide with data.
func BuildIndex(s *Store, name, table, column string, clustered bool, fanout int) (*Index, error) {
	if name == "" || fanout < 2 {
		return nil, fmt.Errorf("%w: name %q fanout %d", errBadIndex, name, fanout)
	}
	if _, ok := s.indexes[name]; ok {
		return nil, fmt.Errorf("%w: %s", errDupIndex, name)
	}
	rel, err := s.Get(table)
	if err != nil {
		return nil, err
	}
	col, err := rel.ColIndex(column)
	if err != nil {
		return nil, err
	}

	// Collect every (key, page, slot), then order by key; ties keep
	// physical order so a clustered scan visits pages monotonically.
	var entries []indexEntry
	prev := int64(0)
	sorted := true
	for p := 0; p < rel.NumPages(); p++ {
		page, err := rel.Page(p)
		if err != nil {
			return nil, err
		}
		for slot, t := range page {
			k := t[col]
			if len(entries) > 0 && k < prev {
				sorted = false
			}
			prev = k
			entries = append(entries, indexEntry{key: k, page: p, slot: slot})
		}
	}
	if clustered && !sorted {
		return nil, fmt.Errorf("%w: %s.%s", errNotSorted, table, column)
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].key < entries[j].key })

	leaves, err := NewRelation(name+"!leaf", []string{"key", "page", "slot"}, fanout)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if err := leaves.Append(Tuple{e.key, int64(e.page), int64(e.slot)}); err != nil {
			return nil, err
		}
	}

	// Build internal levels bottom-up: level 0 summarizes the leaves, each
	// higher level summarizes the one below, until a level fits one page.
	// Child references are page numbers *within the child level*.
	type levelEntry struct {
		key int64
		kid int
	}
	summarize := func(firstKeys []int64) []levelEntry {
		out := make([]levelEntry, len(firstKeys))
		for i, k := range firstKeys {
			out[i] = levelEntry{key: k, kid: i}
		}
		return out
	}
	firstKeyOf := func(entries []levelEntry, fanout int) []int64 {
		var keys []int64
		for i := 0; i < len(entries); i += fanout {
			keys = append(keys, entries[i].key)
		}
		return keys
	}
	leafFirst := make([]int64, 0, leaves.NumPages())
	for p := 0; p < leaves.NumPages(); p++ {
		pg, err := leaves.Page(p)
		if err != nil {
			return nil, err
		}
		if len(pg) > 0 {
			leafFirst = append(leafFirst, pg[0][leafKeyCol])
		}
	}
	var built [][]levelEntry // bottom-up: built[0] points at leaves
	if len(leafFirst) > 1 {
		level := summarize(leafFirst)
		built = append(built, level)
		for (len(level)+fanout-1)/fanout > 1 {
			level = summarize(firstKeyOf(level, fanout))
			built = append(built, level)
		}
	}

	nodes, err := NewRelation(name+"!node", []string{"key", "child"}, fanout)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		Name: name, Table: table, Column: column, height: len(built),
		leaves: leaves, nodes: nodes, dataPages: rel.NumPages(),
	}
	// Flatten root level first, recording each level's page span. Levels
	// are page-aligned (AppendPage, not Append): a child reference is a
	// page number within its level, so levels must not share pages.
	for li := len(built) - 1; li >= 0; li-- {
		span := nodeSpan{start: nodes.NumPages()}
		for i := 0; i < len(built[li]); i += fanout {
			end := i + fanout
			if end > len(built[li]) {
				end = len(built[li])
			}
			page := make([]Tuple, 0, end-i)
			for _, e := range built[li][i:end] {
				page = append(page, Tuple{e.key, int64(e.kid)})
			}
			if err := nodes.AppendPage(page); err != nil {
				return nil, err
			}
		}
		span.count = nodes.NumPages() - span.start
		ix.levels = append(ix.levels, span)
	}

	if err := s.Add(leaves); err != nil {
		return nil, err
	}
	if err := s.Add(nodes); err != nil {
		s.Drop(leaves.Name)
		return nil, err
	}
	s.indexes[ix.Name] = ix
	return ix, nil
}

// Height returns the number of internal (non-leaf) levels — the pages read
// root-to-leaf per probe, and the value catalog.Index.Height should carry
// so the analytic cost model describes this structure.
func (ix *Index) Height() int { return ix.height }

// PageReader fetches one page of a named relation — the hook through which
// index walks charge their I/O (the engine passes buffer.Pool.Read; tests
// may pass Store-direct reads for uncharged inspection).
type PageReader func(rel string, page int) ([]Tuple, error)

// WalkRange visits, in key order, every leaf entry with key in [lo, hi],
// reading the root-to-leaf path and each touched leaf page through read.
// emit receives (key, dataPage, slot) per entry. The walk reads height
// internal pages plus the contiguous run of leaf pages covering the range.
func (ix *Index) WalkRange(read PageReader, lo, hi int64, emit func(key int64, page, slot int) error) error {
	if hi < lo || ix.leaves.NumPages() == 0 {
		return nil
	}
	// Root-to-leaf: at each internal level take the last entry whose
	// separator key is strictly below lo (the first entry when none is).
	// Strict: a separator equals its subtree's *first* key, so a run of
	// duplicates equal to lo can begin at the tail of the preceding
	// subtree — descending to `<= lo` would skip those entries and drop
	// qualifying rows, not just misprice them.
	child := 0
	for _, span := range ix.levels {
		page, err := read(ix.nodes.Name, span.start+child)
		if err != nil {
			return err
		}
		next := 0
		for _, e := range page {
			if e[nodeKeyCol] < lo {
				next = int(e[nodeKidCol])
			} else {
				break
			}
		}
		child = next
	}
	for lp := child; lp < ix.leaves.NumPages(); lp++ {
		page, err := read(ix.leaves.Name, lp)
		if err != nil {
			return err
		}
		for _, e := range page {
			k := e[leafKeyCol]
			if k < lo {
				continue
			}
			if k > hi {
				return nil
			}
			if err := emit(k, int(e[leafPageCol]), int(e[leafSlotCol])); err != nil {
				return err
			}
		}
	}
	return nil
}

// Fresh reports whether the indexed relation still has the page count it
// had at build time (this storage layer is append-only, so a changed page
// count is the staleness signal).
func (ix *Index) Fresh(s *Store) bool {
	rel, err := s.Get(ix.Table)
	return err == nil && rel.NumPages() == ix.dataPages
}

// Index returns the named index.
func (s *Store) Index(name string) (*Index, error) {
	ix, ok := s.indexes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", errNoIndex, name)
	}
	return ix, nil
}
