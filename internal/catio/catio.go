// Package catio loads and saves catalogs and environment descriptions as
// JSON, so the command-line tools can run against user-provided schemas
// rather than only the built-in demos.
package catio

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"lecopt/internal/catalog"
	"lecopt/internal/dist"
)

var errBadEnvSpec = errors.New("catio: invalid environment spec")

// columnJSON mirrors catalog.Column.
type columnJSON struct {
	Name     string  `json:"name"`
	Type     string  `json:"type,omitempty"` // int | float | string
	Distinct float64 `json:"distinct"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
}

// tableJSON mirrors catalog.Table.
type tableJSON struct {
	Name    string       `json:"name"`
	Pages   float64      `json:"pages"`
	Rows    float64      `json:"rows"`
	Columns []columnJSON `json:"columns"`
}

// indexJSON mirrors catalog.Index.
type indexJSON struct {
	Name      string  `json:"name"`
	Table     string  `json:"table"`
	Column    string  `json:"column"`
	Clustered bool    `json:"clustered"`
	Height    float64 `json:"height"`
}

// catalogJSON is the on-disk catalog document.
type catalogJSON struct {
	Tables  []tableJSON `json:"tables"`
	Indexes []indexJSON `json:"indexes,omitempty"`
}

// Read decodes a catalog document.
func Read(r io.Reader) (*catalog.Catalog, error) {
	var doc catalogJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("catio: %w", err)
	}
	cat := catalog.New()
	for _, tj := range doc.Tables {
		cols := make([]catalog.Column, 0, len(tj.Columns))
		for _, cj := range tj.Columns {
			ct, err := parseType(cj.Type)
			if err != nil {
				return nil, err
			}
			cols = append(cols, catalog.Column{
				Name: cj.Name, Type: ct, Distinct: cj.Distinct, Min: cj.Min, Max: cj.Max,
			})
		}
		t, err := catalog.NewTable(tj.Name, tj.Pages, tj.Rows, cols...)
		if err != nil {
			return nil, err
		}
		if err := cat.AddTable(t); err != nil {
			return nil, err
		}
	}
	for _, ij := range doc.Indexes {
		err := cat.AddIndex(catalog.Index{
			Name: ij.Name, Table: ij.Table, Column: ij.Column,
			Clustered: ij.Clustered, Height: ij.Height,
		})
		if err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// write encodes a catalog back to JSON (tables sorted by name).
//
//leclint:allow reach -- test oracle: TestRoundTrip
func write(w io.Writer, cat *catalog.Catalog) error {
	var doc catalogJSON
	for _, name := range cat.TableNames() {
		t, err := cat.Table(name)
		if err != nil {
			return err
		}
		tj := tableJSON{Name: t.Name, Pages: t.Pages, Rows: t.Rows}
		for _, c := range t.Columns() {
			tj.Columns = append(tj.Columns, columnJSON{
				Name: c.Name, Type: c.Type.String(), Distinct: c.Distinct, Min: c.Min, Max: c.Max,
			})
		}
		doc.Tables = append(doc.Tables, tj)
		for _, ix := range cat.IndexesOn(name) {
			doc.Indexes = append(doc.Indexes, indexJSON{
				Name: ix.Name, Table: ix.Table, Column: ix.Column,
				Clustered: ix.Clustered, Height: ix.Height,
			})
		}
	}
	sort.Slice(doc.Indexes, func(i, j int) bool { return doc.Indexes[i].Name < doc.Indexes[j].Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func parseType(s string) (catalog.ColumnType, error) {
	switch strings.ToLower(s) {
	case "", "int":
		return catalog.TypeInt, nil
	case "float":
		return catalog.TypeFloat, nil
	case "string":
		return catalog.TypeString, nil
	default:
		return 0, fmt.Errorf("catio: unknown column type %q", s)
	}
}

// ParseMemLaw parses a memory-law spec of the form "v:p,v:p,..." (weights
// are normalized) or a single "v" for a point law. Example 1.1 is
// "700:0.2,2000:0.8".
func ParseMemLaw(spec string) (dist.Dist, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return dist.Dist{}, fmt.Errorf("%w: empty law", errBadEnvSpec)
	}
	var vals, probs []float64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		var v, p float64
		switch n := strings.Count(part, ":"); n {
		case 0:
			if _, err := fmt.Sscanf(part, "%g", &v); err != nil {
				return dist.Dist{}, fmt.Errorf("%w: %q", errBadEnvSpec, part)
			}
			p = 1
		case 1:
			if _, err := fmt.Sscanf(part, "%g:%g", &v, &p); err != nil {
				return dist.Dist{}, fmt.Errorf("%w: %q", errBadEnvSpec, part)
			}
		default:
			return dist.Dist{}, fmt.Errorf("%w: %q", errBadEnvSpec, part)
		}
		vals = append(vals, v)
		probs = append(probs, p)
	}
	d, err := dist.New(vals, probs)
	if err != nil {
		return dist.Dist{}, fmt.Errorf("%w: %v", errBadEnvSpec, err)
	}
	return d, nil
}
