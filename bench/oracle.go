package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"lecopt"
	"lecopt/internal/catalog"
	"lecopt/internal/query"
	"lecopt/internal/storage"
)

// The oracle holds the checks behind error_share. None of them asks the
// code under test for the answer: row counts come from a naive join over
// the stored tuples, plan quality from the LSC baseline of the same
// request, and determinism from replaying the same stream twice.

// ecSlack is the relative tolerance of the LEC <= LSC check.
const ecSlack = 1e-9

// opFailed is the per-request check shared by every workload: an error, a
// missing plan, or (where the algorithm guarantees it) an expected cost
// above the LSC plan's for the same request and environment.
func opFailed(resp *lecopt.Response, err error, lscEC float64, checkEC bool) bool {
	if err != nil || resp.Plan == nil {
		return true
	}
	return checkEC && resp.EC > lscEC*(1+ecSlack)
}

// referenceJoinRows counts the rows of blk's filtered equi-join with a
// naive in-memory hash join over storage.Relation.AllTuples, following
// the block's join edges. Each partial row keeps one tuple per joined
// table, so any equi-join graph is evaluated, not only the shared-key
// shape the generators emit.
func referenceJoinRows(store *storage.Store, blk *query.Block) (int, error) {
	type side struct {
		tuples []storage.Tuple
		cols   map[string]int
	}
	sides := make([]side, len(blk.Tables))
	for ti, name := range blk.Tables {
		rel, err := store.Get(name)
		if err != nil {
			return 0, err
		}
		cols := make(map[string]int, len(rel.Cols))
		for ci, c := range rel.Cols {
			cols[c] = ci
		}
		filters := blk.FiltersOn(name)
		for _, f := range filters {
			if _, ok := cols[f.Col.Column]; !ok {
				return 0, fmt.Errorf("oracle: filter column %s not in %s", f.Col, name)
			}
		}
		var kept []storage.Tuple
		for _, t := range rel.AllTuples() {
			ok := true
			for _, f := range filters {
				if !cmp(float64(t[cols[f.Col.Column]]), f.Op, f.Value) {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, t)
			}
		}
		sides[ti] = side{tuples: kept, cols: cols}
	}
	joined := make([]bool, len(blk.Tables))
	joined[0] = true
	rows := make([][]storage.Tuple, len(sides[0].tuples))
	for i, t := range sides[0].tuples {
		row := make([]storage.Tuple, len(blk.Tables))
		row[0] = t
		rows[i] = row
	}
	done := make([]bool, len(blk.Joins))
	for remaining := len(blk.Joins); remaining > 0; {
		progressed := false
		for ji, j := range blk.Joins {
			if done[ji] {
				continue
			}
			li, ri := blk.TableIndex(j.Left.Table), blk.TableIndex(j.Right.Table)
			lc, rc := sides[li].cols[j.Left.Column], sides[ri].cols[j.Right.Column]
			switch {
			case joined[li] && joined[ri]: // cycle edge: a residual filter
				kept := rows[:0]
				for _, row := range rows {
					if row[li][lc] == row[ri][rc] {
						kept = append(kept, row)
					}
				}
				rows = kept
			case joined[li] || joined[ri]:
				if joined[ri] { // orient: li joined, ri new
					li, ri, lc, rc = ri, li, rc, lc
				}
				build := make(map[int64][]storage.Tuple)
				for _, t := range sides[ri].tuples {
					build[t[rc]] = append(build[t[rc]], t)
				}
				var next [][]storage.Tuple
				for _, row := range rows {
					for _, t := range build[row[li][lc]] {
						ext := append([]storage.Tuple(nil), row...)
						ext[ri] = t
						next = append(next, ext)
					}
				}
				rows = next
				joined[ri] = true
			default:
				continue
			}
			done[ji] = true
			remaining--
			progressed = true
		}
		if !progressed {
			return 0, fmt.Errorf("oracle: join graph of %s is not connected", blk)
		}
	}
	return len(rows), nil
}

func cmp(v float64, op catalog.CmpOp, ref float64) bool {
	switch op {
	case catalog.OpEq:
		return v == ref
	case catalog.OpLt:
		return v < ref
	case catalog.OpLe:
		return v <= ref
	case catalog.OpGt:
		return v > ref
	default:
		return v >= ref
	}
}

// digestOps is how many leading responses of a pass the determinism digest
// covers.
const digestOps = 2000

// response is what the digest keeps of one served request.
type response struct {
	plan  *lecopt.Plan
	ec    float64
	pages int64
}

// digest hashes (plan signature, expected cost, pages) of the recorded
// responses. Two passes over the same stream from the same state must
// produce the same digest; so must two set-ups from the same seed.
func digest(rs []response) string {
	h := sha256.New()
	var buf [16]byte
	for _, r := range rs {
		if r.plan != nil {
			h.Write([]byte(r.plan.Signature()))
		}
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(r.ec))
		binary.LittleEndian.PutUint64(buf[8:], uint64(r.pages))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
