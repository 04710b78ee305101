package relation

import (
	"fmt"
	"sort"
)

// Composite indexes.
//
// A composite index generalizes the per-column indexes of cols(): it
// maps the projection of each tuple onto a fixed subset of columns to
// the arena offsets of the tuples having that projection, so an
// equality probe on several columns at once costs one hash lookup
// instead of a single-column lookup plus per-tuple filtering.  The
// engine's join planner asks for the widest index covering the bound
// argument positions of a literal.
//
// Like the per-column indexes, composite indexes are built lazily on
// first probe, published atomically (so any number of readers may probe
// concurrently while one goroutine builds), extended by the arena
// suffix after appends, and made stale by invalidate() on a Remove.
// Each Relation holds a small immutable map from a column-set bitmask
// to its index; adding an index replaces the map copy-on-write under
// mu, so established readers never observe a map being written.
//
// Published sets are shared: a Snapshot view starts with its parent's
// complete per-column and composite sets (same generation stamp, same
// pointers) and so answers its first probes without building anything.
// Only the live relation ever extends a set, and its appends land past
// the slice lengths any view reads; a view's sets are complete for its
// fixed arena, so two relations never extend one set.
//
// A probe binding every column never builds a composite index: the
// projection would be the whole tuple, and the primary key already maps
// each tuple to its offset.  LookupCols answers such probes from the
// key; the engine's full-key joins call OffsetOf directly.
//
// Projections are keyed exactly like relation storage: the packed
// uint64 encoding when the projected tuple packs (see key.go), the
// byte-string spill encoding otherwise.  A given projection always
// encodes the same way, so build and probe can never disagree on which
// of the two maps holds an entry.

// compIndex is one composite index: projection key → arena offsets,
// covering the first n arena entries.  Like the per-column indexes it
// stays exact under appends (offsets are monotone) and is extended by
// the arena suffix on the next probe rather than rebuilt.
type compIndex struct {
	n      int
	packed map[uint64][]int32
	spill  map[string][]int32
}

// compIndexSet is a generation-stamped immutable map of composite
// indexes by column bitmask: valid exactly while the relation's
// mutation generation still equals gen.  Individual indexes may cover
// different arena prefixes (they are built lazily at different times);
// each carries its own coverage length.
type compIndexSet struct {
	gen uint64
	m   map[uint64]*compIndex
}

// complete reports whether every index of the set covers the first n
// arena entries.
func (s *compIndexSet) complete(n int) bool {
	for _, ci := range s.m {
		if ci.n != n {
			return false
		}
	}
	return true
}

// colsMask validates cols (strictly ascending, in range, below 64) and
// returns the bitmask identifying the index.
func (r *Relation) colsMask(cols []int) uint64 {
	if len(cols) == 0 {
		panic("relation: composite index over zero columns")
	}
	var m uint64
	prev := -1
	for _, c := range cols {
		if c < 0 || c >= r.arity {
			panic(fmt.Sprintf("relation: index column %d out of range for arity %d", c, r.arity))
		}
		if c <= prev {
			panic(fmt.Sprintf("relation: index columns %v not strictly ascending", cols))
		}
		if c >= 64 {
			panic(fmt.Sprintf("relation: composite index column %d exceeds the 64-column limit", c))
		}
		prev = c
		m |= 1 << uint(c)
	}
	return m
}

// compFor returns the composite index on cols, building it on first
// use, extending it when the relation has only grown since it was
// published, and rebuilding after a structural mutation.  Safe for
// concurrent use by readers: published sets and indexes are immutable,
// extension copies the key maps under mu and republishes atomically.
func (r *Relation) compFor(cols []int, mask uint64) *compIndex {
	if p := r.cidx.Load(); p != nil && p.gen == r.gen {
		if ci, ok := p.m[mask]; ok && ci.n == len(r.arena) {
			return ci
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.cidx.Load()
	var prev *compIndex
	if cur != nil && cur.gen == r.gen {
		if ci, ok := cur.m[mask]; ok {
			if ci.n == len(r.arena) {
				return ci
			}
			prev = ci // append-only growth: extend by the suffix
		}
	}
	ci := r.buildComp(cols, prev)
	next := make(map[uint64]*compIndex, 1)
	if cur != nil && cur.gen == r.gen {
		for k, v := range cur.m {
			next[k] = v
		}
	}
	next[mask] = ci
	r.cidx.Store(&compIndexSet{gen: r.gen, m: next})
	return ci
}

// buildComp groups arena offsets by projection key.  With prev nil it
// scans the whole arena; otherwise it copies prev's key maps and scans
// only the suffix prev does not cover.
func (r *Relation) buildComp(cols []int, prev *compIndex) *compIndex {
	ci := &compIndex{n: len(r.arena)}
	lo := 0
	if prev != nil {
		lo = prev.n
		ci.packed = make(map[uint64][]int32, len(prev.packed)+(ci.n-lo))
		for k, offs := range prev.packed {
			ci.packed[k] = offs
		}
		if prev.spill != nil {
			ci.spill = make(map[string][]int32, len(prev.spill))
			for k, offs := range prev.spill {
				ci.spill[k] = offs
			}
		}
	} else {
		ci.packed = make(map[uint64][]int32)
	}
	proj := make(Tuple, len(cols))
	for off := lo; off < len(r.arena); off++ {
		for i, c := range cols {
			proj[i] = r.arena[off][c]
		}
		if k, ok := packKey(proj); ok {
			ci.packed[k] = append(ci.packed[k], int32(off))
			continue
		}
		if ci.spill == nil {
			ci.spill = make(map[string][]int32)
		}
		sk := spillKey(proj)
		ci.spill[sk] = append(ci.spill[sk], int32(off))
	}
	return ci
}

// LookupCols returns the arena offsets of the tuples whose projection
// on cols equals vals (element i of vals constrains column cols[i]);
// resolve them with At.  cols must be strictly ascending.  The
// underlying composite index is built lazily and cached until the next
// mutation.  Callers must not mutate the returned slice.  Safe for
// concurrent use by readers.  The probe itself is allocation-free on
// the packed path; projections that spill (ids beyond the packed width)
// pay one key allocation per probe.  A probe binding every column
// builds no index: it resolves on the primary key and allocates its
// at-most-one-element result (the engine's full-key joins call
// OffsetOf directly instead).
func (r *Relation) LookupCols(cols []int, vals []int) []int32 {
	mask := r.colsMask(cols)
	if len(cols) == r.arity {
		if off := r.OffsetOf(Tuple(vals)); off >= 0 {
			return []int32{off}
		}
		return nil
	}
	ci := r.compFor(cols, mask)
	if k, ok := packKey(Tuple(vals)); ok {
		return ci.packed[k]
	}
	if ci.spill == nil {
		return nil
	}
	return ci.spill[spillKey(Tuple(vals))]
}

// OffsetsInRange narrows an index offset list (as returned by Lookup or
// LookupCols, always ascending: indexes are built by one arena scan) to
// the offsets in [lo, hi) — the shard-aware form of an index probe, used
// when a literal's enumeration is split into arena-range shards.  The
// result aliases offs; callers must not mutate it.
func OffsetsInRange(offs []int32, lo, hi int32) []int32 {
	if hi <= lo {
		return nil
	}
	i := sort.Search(len(offs), func(i int) bool { return offs[i] >= lo })
	j := sort.Search(len(offs), func(j int) bool { return offs[j] >= hi })
	return offs[i:j]
}

// Distinct returns the number of distinct values appearing in column
// col — the statistic the join planner divides by when estimating the
// selectivity of an equality probe.  It shares the lazily built
// per-column indexes, so after the first call (or the first Lookup) it
// is O(1) until the next mutation.
func (r *Relation) Distinct(col int) int {
	if col < 0 || col >= r.arity {
		panic(fmt.Sprintf("relation: index column %d out of range for arity %d", col, r.arity))
	}
	return len(r.cols()[col])
}
