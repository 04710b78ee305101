package incr_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/semantics"
)

const (
	tcSrc   = "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y)."
	distSrc = `
s1(X,Y) :- E(X,Y).
s1(X,Y) :- E(X,Z), s1(Z,Y).
s2(Xs,Ys) :- E(Xs,Ys).
s2(Xs,Ys) :- E(Xs,Zs), s2(Zs,Ys).
s3(X,Y,Xs,Ys) :- E(X,Y), !s2(Xs,Ys).
s3(X,Y,Xs,Ys) :- E(X,Z), s1(Z,Y), !s2(Xs,Ys).
`
	winSrc = "win(X) :- E(X,Y), !win(Y)."
	// X appears only under negation: the rule enumerates the universe,
	// so universe growth forces the recompute fallback.
	unsafeSrc = "t(X) :- !E(X,X).\nu(X,Y) :- E(X,Y), !F(X,Y)."
)

// applyPlain mirrors a maintainer update onto a plain database, in the
// same order normalize uses (deletes first), so constant interning
// stays aligned.
func applyPlain(t *testing.T, db *relation.Database, ins, del []incr.Fact) {
	t.Helper()
	tup := func(f incr.Fact) relation.Tuple {
		tu := make(relation.Tuple, len(f.Args))
		for i, a := range f.Args {
			tu[i] = db.Universe().Intern(a)
		}
		return tu
	}
	for _, f := range del {
		r, err := db.Ensure(f.Pred, len(f.Args))
		if err != nil {
			t.Fatal(err)
		}
		r.Remove(tup(f))
	}
	for _, f := range ins {
		r, err := db.Ensure(f.Pred, len(f.Args))
		if err != nil {
			t.Fatal(err)
		}
		r.Add(tup(f))
	}
}

// randomBatch draws 1-3 fact inserts/deletes over the given predicates,
// occasionally using a fresh constant name to exercise universe growth.
func randomBatch(rng *rand.Rand, preds []string, n int, fresh *int) (ins, del []incr.Fact) {
	name := func() string {
		if rng.Intn(12) == 0 {
			*fresh++
			return fmt.Sprintf("w%d", *fresh)
		}
		return graphs.VertexName(rng.Intn(n))
	}
	seen := map[string]bool{}
	for k := rng.Intn(3) + 1; k > 0; k-- {
		f := incr.Fact{Pred: preds[rng.Intn(len(preds))], Args: []string{name(), name()}}
		key := f.Pred + "/" + f.Args[0] + "/" + f.Args[1]
		if seen[key] {
			continue // same tuple twice in one batch risks an ins/del conflict
		}
		seen[key] = true
		if rng.Intn(2) == 0 {
			ins = append(ins, f)
		} else {
			del = append(del, f)
		}
	}
	return ins, del
}

// checkMaintained interleaves random inserts and deletes and verifies
// after every update that the maintained state is bit-exact with a
// from-scratch recompute on an identically updated plain database.
func checkMaintained(t *testing.T, src string, sem core.Semantics, preds []string, seed int64, steps int) {
	prog := parser.MustProgram(src)
	n := 6
	db0 := graphs.Random(rand.New(rand.NewSource(seed)), n, 0.3).Database()
	if len(preds) > 1 {
		// Seed the auxiliary predicates so Ensure arities agree.
		for _, p := range preds[1:] {
			db0.MustEnsure(p, 2)
		}
	}
	m, err := incr.New(prog, db0, sem)
	if err != nil {
		t.Fatal(err)
	}
	mirror := db0.Clone()
	rng := rand.New(rand.NewSource(seed * 7))
	fresh := 0
	for step := 0; step < steps; step++ {
		ins, del := randomBatch(rng, preds, n, &fresh)
		old := m.State().Clone()
		stats, err := m.Update(ins, del)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkNetCounts(t, step, stats, old, m.State())
		applyPlain(t, mirror, ins, del)
		want, err := core.Eval(prog, mirror, sem, semantics.SemiNaive)
		if err != nil {
			t.Fatalf("step %d recompute: %v", step, err)
		}
		got := m.State().Format(m.Universe())
		exp := want.State.Format(want.Universe)
		if got != exp {
			t.Fatalf("step %d (%s, ins=%v del=%v, strategy=%s): maintained state diverged\nmaintained:\n%s\nrecompute:\n%s",
				step, sem, ins, del, stats.Strategy, got, exp)
		}
	}
}

// checkNetCounts asserts that a counting/DRed update reports exactly
// the net IDB change, |new∖old| inserted and |old∖new| deleted summed
// over the IDB predicates, computed here with whole-relation Diffs —
// the work the maintainer itself no longer does.
func checkNetCounts(t *testing.T, step int, stats *incr.UpdateStats, old, cur engine.State) {
	t.Helper()
	if stats.Strategy != "strata" && stats.Strategy != "noop" {
		return // replay and recompute report cardinality changes instead
	}
	if got, want := stats.InsertedIDB, cur.Diff(old).Total(); got != want {
		t.Fatalf("step %d (%s): InsertedIDB = %d, want |new∖old| = %d", step, stats.Strategy, got, want)
	}
	if got, want := stats.DeletedIDB, old.Diff(cur).Total(); got != want {
		t.Fatalf("step %d (%s): DeletedIDB = %d, want |old∖new| = %d", step, stats.Strategy, got, want)
	}
}

// TestDRedNetChangesReinsert pins the case the net counts hinge on: an
// overdeleted tuple that rederivation cannot restore (its new support
// does not exist yet) but the insert phase does.  Deleting E(b,c) and
// inserting E(a,d), E(d,c) overdeletes s(b,c) and s(a,c); only s(b,c)
// is a net deletion, and only s(a,d), s(d,c) are net insertions.
func TestDRedNetChangesReinsert(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	db := relation.NewDatabase()
	db.AddFact("E", "a", "b")
	db.AddFact("E", "b", "c")
	db.AddConstant("d")
	m := incr.MustNew(prog, db, core.Stratified)
	old := m.State().Clone()
	stats, err := m.Update(
		[]incr.Fact{{Pred: "E", Args: []string{"a", "d"}}, {Pred: "E", Args: []string{"d", "c"}}},
		[]incr.Fact{{Pred: "E", Args: []string{"b", "c"}}})
	if err != nil {
		t.Fatal(err)
	}
	checkNetCounts(t, 0, stats, old, m.State())
	if stats.InsertedIDB != 2 || stats.DeletedIDB != 1 {
		t.Fatalf("net IDB change +%d -%d, want +2 -1", stats.InsertedIDB, stats.DeletedIDB)
	}
}

func TestMaintainedMatchesRecompute(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		preds []string
		sems  []core.Semantics
	}{
		{"tc", tcSrc, []string{"E"}, []core.Semantics{core.Inflationary, core.LFP, core.Stratified, core.WellFounded}},
		{"distance", distSrc, []string{"E"}, []core.Semantics{core.Stratified, core.Inflationary, core.WellFounded}},
		{"winmove", winSrc, []string{"E"}, []core.Semantics{core.Inflationary, core.WellFounded}},
		{"unsafe-semipositive", unsafeSrc, []string{"E", "F"}, []core.Semantics{core.LFP, core.Inflationary, core.Stratified}},
	}
	for _, tc := range cases {
		for _, sem := range tc.sems {
			for _, seed := range []int64{1, 2, 3} {
				name := fmt.Sprintf("%s/%v/seed%d", tc.name, sem, seed)
				t.Run(name, func(t *testing.T) {
					steps := 24
					if testing.Short() {
						steps = 8
					}
					checkMaintained(t, tc.src, sem, tc.preds, seed, steps)
				})
			}
		}
	}
}

// TestMaintainedPartitioned runs the maintained-vs-recompute check with
// K-way partitioned evaluation: the initial evaluation partitions
// through the semantics dispatch, and the DRed cascade/insert rounds
// route their deltas to the owning partitions.  The oracle recompute
// stays unpartitioned, so divergence anywhere in the exchange path
// would surface as a state diff.
func TestMaintainedPartitioned(t *testing.T) {
	prog := parser.MustProgram(distSrc)
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("K%d", k), func(t *testing.T) {
			db0 := graphs.Random(rand.New(rand.NewSource(9)), 6, 0.3).Database()
			m, err := incr.NewWith(prog, db0, core.Stratified, engine.Options{Partitions: k})
			if err != nil {
				t.Fatal(err)
			}
			mirror := db0.Clone()
			rng := rand.New(rand.NewSource(63))
			fresh := 0
			steps := 16
			if testing.Short() {
				steps = 6
			}
			for step := 0; step < steps; step++ {
				ins, del := randomBatch(rng, []string{"E"}, 6, &fresh)
				old := m.State().Clone()
				stats, err := m.Update(ins, del)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				checkNetCounts(t, step, stats, old, m.State())
				applyPlain(t, mirror, ins, del)
				want, err := core.Eval(prog, mirror, core.Stratified, semantics.SemiNaive)
				if err != nil {
					t.Fatalf("step %d recompute: %v", step, err)
				}
				got := m.State().Format(m.Universe())
				if exp := want.State.Format(want.Universe); got != exp {
					t.Fatalf("step %d (K=%d, ins=%v del=%v): maintained state diverged\nmaintained:\n%s\nrecompute:\n%s",
						step, k, ins, del, got, exp)
				}
			}
		})
	}
}

func TestUpdateErrors(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	db := graphs.Path(3).Database()
	m := incr.MustNew(prog, db, core.LFP)
	if _, err := m.Update([]incr.Fact{{Pred: "s", Args: []string{"v0", "v1"}}}, nil); err == nil {
		t.Error("updating an IDB predicate should fail")
	}
	if _, err := m.Update([]incr.Fact{{Pred: "E", Args: []string{"v0"}}}, nil); err == nil {
		t.Error("arity mismatch should fail")
	}
	f := incr.Fact{Pred: "E", Args: []string{"v0", "v1"}} // present, so both sides are effective
	if _, err := m.Update([]incr.Fact{f}, []incr.Fact{f}); err == nil {
		t.Error("same-tuple insert+delete should fail")
	}
	// No-op updates are reported as such.
	stats, err := m.Update([]incr.Fact{{Pred: "E", Args: []string{"v0", "v1"}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Strategy != "noop" {
		t.Errorf("re-inserting a present fact: strategy %q, want noop", stats.Strategy)
	}
}

func TestSnapshotStableAcrossUpdates(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	m := incr.MustNew(prog, graphs.Path(4).Database(), core.LFP)
	snap := m.Snapshot()
	before := snap.Rels["s"].Len()
	if _, err := m.Update([]incr.Fact{{Pred: "E", Args: []string{"v3", "v0"}}}, nil); err != nil {
		t.Fatal(err)
	}
	if snap.Rels["s"].Len() != before {
		t.Fatalf("published snapshot changed under an update: %d -> %d", before, snap.Rels["s"].Len())
	}
	next := m.Snapshot()
	if next.Gen <= snap.Gen {
		t.Fatalf("generation did not advance: %d -> %d", snap.Gen, next.Gen)
	}
	if next.Rels["s"].Len() <= before {
		t.Fatalf("new snapshot missing maintained growth")
	}
}
