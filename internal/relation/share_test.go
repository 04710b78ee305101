package relation

import (
	"math/rand"
	"sync"
	"testing"
)

// checkLookups compares Lookup and Distinct on every column against a
// scan of r, and requires every returned offset to lie inside r.
func checkLookups(t *testing.T, r *Relation, domain int, label string) {
	t.Helper()
	for c := 0; c < r.Arity(); c++ {
		distinct := 0
		for v := 0; v < domain; v++ {
			got, want := r.Lookup(c, v), bruteOffsets(r, []int{c}, []int{v})
			if !equalOffsets(got, want) {
				t.Fatalf("%s: Lookup(%d, %d) = %v, want %v", label, c, v, got, want)
			}
			for _, off := range got {
				if int(off) >= r.Len() {
					t.Fatalf("%s: Lookup(%d, %d) returned offset %d of a %d-tuple relation", label, c, v, off, r.Len())
				}
			}
			if len(want) > 0 {
				distinct++
			}
		}
		if got := r.Distinct(c); got != distinct {
			t.Fatalf("%s: Distinct(%d) = %d, want %d", label, c, got, distinct)
		}
	}
}

// indexedRelation returns an arity-3 relation over [0, domain) whose
// per-column index and {0,1} composite index are built and complete.
// One Remove first moves its generation off zero, so a view that failed
// to take over the stamp would not match the indexes by accident.
func indexedRelation(rng *rand.Rand, n, domain int) *Relation {
	r := randomIdxRelation(rng, 3, n, domain)
	r.Remove(r.At(0).Clone())
	r.Lookup(0, 0)
	r.LookupCols([]int{0, 1}, []int{0, 0})
	return r
}

// TestSnapshotLookupAllocFree: a fresh Snapshot of an indexed relation
// answers Lookup, LookupCols and Distinct from the parent's published
// indexes, so its first probes allocate nothing.
func TestSnapshotLookupAllocFree(t *testing.T) {
	r := indexedRelation(rand.New(rand.NewSource(1)), 2000, 40)
	const runs = 50
	snaps := make([]*Relation, runs+1) // AllocsPerRun makes one extra warm-up call
	for i := range snaps {
		snaps[i] = r.Snapshot()
	}
	cols, vals := []int{0, 1}, []int{3, 5}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		s := snaps[next]
		next++
		s.Lookup(0, 7)
		s.Lookup(2, 9)
		s.LookupCols(cols, vals)
		s.Distinct(1)
	})
	if allocs != 0 {
		t.Fatalf("probes on a fresh snapshot allocate %v times, want 0", allocs)
	}
}

// TestSharedIndexesExactAfterLiveMutation takes views at several points
// — with the parent's indexes complete (taken over) and incomplete (not
// taken over, built by the view) — then
// keeps mutating the parent (Add, probe-driven index extension, Remove,
// Seal) and re-checks every view's and the parent's answers each step.
func TestSharedIndexesExactAfterLiveMutation(t *testing.T) {
	const domain = 8
	rng := rand.New(rand.NewSource(2))
	r := indexedRelation(rng, 120, domain)
	var views []*Relation
	var labels []string
	addRandom := func(k int) {
		for i := 0; i < k; i++ {
			r.Add(Tuple{rng.Intn(domain), rng.Intn(domain), rng.Intn(domain)})
		}
	}
	for step := 0; step < 12; step++ {
		views = append(views, r.Snapshot())
		labels = append(labels, "view "+string(rune('a'+step)))
		switch step % 4 {
		case 0: // grow without probing: the next view takes over no index
			addRandom(10)
		case 1: // grow, then extend the parent's indexes past the views
			addRandom(10)
			r.Lookup(1, 2)
			r.LookupCols([]int{0, 1}, []int{1, 1})
		case 2: // remove: detaches storage and restamps the parent's indexes
			for i := 0; i < 5 && r.Len() > 0; i++ {
				r.Remove(r.At(int32(rng.Intn(r.Len()))).Clone())
			}
		case 3: // publish: the next mutation copies the storage
			r.Seal()
			addRandom(5)
		}
		for i, v := range views {
			checkLookups(t, v, domain, labels[i])
			checkAllProbes(t, v, labels[i])
		}
		checkLookups(t, r, domain, "parent")
		checkAllProbes(t, r, "parent")
	}
}

// TestSharedIndexesConcurrentReaders is the daemon scenario over shared
// indexes: readers probe sealed views while the parent keeps growing,
// extending its indexes and removing.  Run under -race.
func TestSharedIndexesConcurrentReaders(t *testing.T) {
	const domain = 16
	rng := rand.New(rand.NewSource(3))
	r := indexedRelation(rng, 400, domain)
	for round := 0; round < 6; round++ {
		// Leave the indexes incomplete half the time, so views also
		// build their own while the parent extends its sets.
		if round%2 == 1 {
			for i := 0; i < 20; i++ {
				r.Add(Tuple{rng.Intn(domain), rng.Intn(domain), domain + round*100 + i})
			}
		}
		s := r.Snapshot()
		r.Seal()
		type probe struct{ c, v int }
		want := make(map[probe][]int32)
		wantComp := make(map[probe][]int32)
		for c := 0; c < 3; c++ {
			for v := 0; v < domain; v++ {
				want[probe{c, v}] = bruteOffsets(s, []int{c}, []int{v})
			}
		}
		for a := 0; a < domain; a++ {
			for b := 0; b < domain; b++ {
				wantComp[probe{a, b}] = bruteOffsets(s, []int{0, 1}, []int{a, b})
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					c, v := (g+i)%3, (i*7+g)%domain
					if got := s.Lookup(c, v); !sameOffsets(got, want[probe{c, v}]) {
						t.Errorf("round %d: view Lookup(%d, %d) = %v, want %v", round, c, v, got, want[probe{c, v}])
						return
					}
					a, b := i%domain, (i/domain+g)%domain
					if got := s.LookupCols([]int{0, 1}, []int{a, b}); !sameOffsets(got, wantComp[probe{a, b}]) {
						t.Errorf("round %d: view LookupCols(%d, %d) = %v, want %v", round, a, b, got, wantComp[probe{a, b}])
						return
					}
				}
			}(g)
		}
		for i := 0; i < 40; i++ {
			r.Add(Tuple{rng.Intn(domain), rng.Intn(domain), 1000 + round*100 + i})
			if i%8 == 0 {
				r.Lookup(0, i%domain)
				r.LookupCols([]int{0, 1}, []int{i % domain, 0})
			}
			if i%10 == 0 {
				r.Remove(r.At(int32(rng.Intn(r.Len()))).Clone())
			}
		}
		wg.Wait()
	}
}

// TestPrefixIgnoresParentIndexes: a Prefix view of an indexed relation
// never returns an offset at or past its length.
func TestPrefixIgnoresParentIndexes(t *testing.T) {
	const domain = 6
	r := indexedRelation(rand.New(rand.NewSource(4)), 150, domain)
	for _, n := range []int{0, 1, 40, 100, r.Len()} {
		p := r.Prefix(n)
		checkLookups(t, p, domain, "prefix")
		checkAllProbes(t, p, "prefix")
	}
}

// TestFullKeyLookupColsBuildsNoIndex: a LookupCols probe binding every
// column answers from the primary key and publishes no composite index.
func TestFullKeyLookupColsBuildsNoIndex(t *testing.T) {
	r := FromTuples(3, []Tuple{{1, 2, 3}, {1, 2, 4}, {5, 6, 7}})
	if got := r.LookupCols([]int{0, 1, 2}, []int{1, 2, 4}); len(got) != 1 || !r.At(got[0]).Equal(Tuple{1, 2, 4}) {
		t.Fatalf("full-key LookupCols = %v, want the offset of (1,2,4)", got)
	}
	if got := r.LookupCols([]int{0, 1, 2}, []int{1, 2, 5}); len(got) != 0 {
		t.Fatalf("full-key LookupCols of an absent tuple = %v", got)
	}
	if HasFullKeyIndex(r) || r.cidx.Load() != nil {
		t.Fatal("a full-key probe built a composite index")
	}
}
