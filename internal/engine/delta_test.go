package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/semantics"
)

// diamond returns the TC instance over E = {a→b, a→c, b→d, c→d} and its
// inflationary fixpoint state.
func diamond(t *testing.T) (*engine.Instance, engine.State) {
	t.Helper()
	prog := parser.MustProgram("s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).")
	db := parser.MustFacts("E(a,b). E(a,c). E(b,d). E(c,d).")
	in := engine.MustNew(prog, db)
	return in, semantics.Inflationary(in).State
}

func tup(in *engine.Instance, names ...string) relation.Tuple {
	t := make(relation.Tuple, len(names))
	for i, n := range names {
		id, ok := in.Universe().Lookup(n)
		if !ok {
			panic("unknown constant " + n)
		}
		t[i] = id
	}
	return t
}

// TestApplyCountDerivations checks exact derivation counts: in the
// diamond, s(a,d) has two derivations (through b and through c), every
// other tuple one.
func TestApplyCountDerivations(t *testing.T) {
	in, st := diamond(t)
	cnt := in.ApplyCount(st, st)
	ms := cnt["s"]
	if ms == nil {
		t.Fatal("no counts for s")
	}
	if got := ms.Count(tup(in, "a", "d")); got != 2 {
		t.Errorf("count s(a,d) = %d, want 2", got)
	}
	for _, pair := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		if got := ms.Count(tup(in, pair[0], pair[1])); got != 1 {
			t.Errorf("count s(%s,%s) = %d, want 1", pair[0], pair[1], got)
		}
	}
}

// TestApplyDeltasPosDriverMatchesApplyDelta checks the generalized
// machinery reproduces the IDB semi-naive primitive it replaced.
func TestApplyDeltasPosDriverMatchesApplyDelta(t *testing.T) {
	in, _ := diamond(t)
	old := in.NewState()
	cur := in.Apply(old) // stage 1: the E edges
	delta := cur.Diff(old)

	want := in.ApplyDelta(old, delta, cur)
	got := in.ApplyDeltas(cur, cur, map[string]engine.Delta{
		"s": {PosDriver: delta["s"], Before: old["s"]},
	})
	if !got.Equal(want) {
		t.Fatalf("ApplyDeltas != ApplyDelta:\ngot  %v\nwant %v",
			got.Format(in.Universe()), want.Format(in.Universe()))
	}
}

// TestApplyDeltasNegDriver: with win(X) :- E(X,Y), !win(Y), a tuple
// entering win must surface exactly the derivations its negation was
// supporting — the disabled-derivations probe of the delete pass.
func TestApplyDeltasNegDriver(t *testing.T) {
	prog := parser.MustProgram("win(X) :- E(X,Y), !win(Y).")
	db := parser.MustFacts("E(a,b). E(b,c). E(c,d).")
	in := engine.MustNew(prog, db)
	empty := in.NewState()

	gained := relation.New(1)
	gained.Add(tup(in, "b"))
	got := in.ApplyDeltas(empty, empty, map[string]engine.Delta{
		"win": {NegDriver: gained},
	})
	want := in.NewState()
	want["win"].Add(tup(in, "a"))
	if !got.Equal(want) {
		t.Fatalf("neg-driver derivations = %v, want %v",
			got.Format(in.Universe()), want.Format(in.Universe()))
	}
}

// TestApplyWithin restricts evaluation to a candidate head set.
func TestApplyWithin(t *testing.T) {
	in, st := diamond(t)
	cand := relation.New(2)
	cand.Add(tup(in, "a", "d"))
	cand.Add(tup(in, "d", "a")) // not derivable
	got := in.ApplyWithin(st, st, map[string]*relation.Relation{"s": cand})
	if got["s"].Len() != 1 || !got["s"].Has(tup(in, "a", "d")) {
		t.Fatalf("ApplyWithin = %v, want exactly s(a,d)", got.Format(in.Universe()))
	}
	// Empty filter: nothing runs.
	if out := in.ApplyWithin(st, st, nil); !out.Empty() {
		t.Fatalf("ApplyWithin(nil) derived %v", out.Format(in.Universe()))
	}
}

// TestApplyDeltasCountExact: inserting the edge b→d into the path
// a→b, a→c, c→d must report exactly the new derivations, each once,
// under the first-driver discipline.
func TestApplyDeltasCountExact(t *testing.T) {
	prog := parser.MustProgram("s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).")
	db := parser.MustFacts("E(a,b). E(a,c). E(c,d).")
	in := engine.MustNew(prog, db)
	e := in.Database().Relation("E")
	preE := e.Snapshot()
	add := relation.New(2)
	add.Add(tup(in, "b", "d"))
	e.Add(tup(in, "b", "d"))

	// New-state fixpoint for side reads: recompute (small test graph).
	post := semantics.Inflationary(engine.MustNew(prog, in.Database().Clone())).State

	cnt := in.ApplyDeltasCount(post, post, map[string]engine.Delta{
		"E": {PosDriver: add, Before: preE},
	})
	ms := cnt["s"]
	// New derivations using E(b,d): rule1 → s(b,d) once; rule2 with
	// E(b,d) as E(X,Z) needs s(d,y): none.  Derivations of s(a,d) via
	// E(a,b), s(b,d) are NOT driven by the EDB delta (they are driven by
	// the IDB delta s(b,d), a later pass), so they must not be counted.
	if ms == nil || ms.Count(tup(in, "b", "d")) != 1 {
		t.Fatalf("count s(b,d) wrong: %v", ms)
	}
	total := int64(0)
	ms.Each(func(_ relation.Tuple, n int64) bool { total += n; return true })
	if total != 1 {
		t.Fatalf("total driven derivations = %d, want 1", total)
	}
}

// TestBeforeReads checks which Before/BeforeNeg relations a delta pass
// reads.  Positions rank positives first, then negations, in body
// order.  In oneway(X,Y) :- E(X,Y), !s(Y,X) only the variant driven by
// !s reads a literal before its driver: the positive E.  In
// p(X) :- r(X), !q(X), !u(X) the !u-driven variant also checks !q
// before it.
func TestBeforeReads(t *testing.T) {
	prog := parser.MustProgram("oneway(X,Y) :- E(X,Y), !s(Y,X).\np(X) :- r(X), !q(X), !u(X).")
	in := engine.MustNew(prog, relation.NewDatabase())
	cases := []struct {
		drivers  []string
		pos, neg []string
	}{
		{[]string{"E", "s"}, []string{"E"}, nil},
		{[]string{"E"}, nil, nil},
		{[]string{"r"}, nil, nil},
		{[]string{"q"}, []string{"r"}, nil},
		{[]string{"u"}, []string{"r"}, []string{"q"}},
	}
	same := func(got map[string]bool, want []string) bool {
		if len(got) != len(want) {
			return false
		}
		for _, p := range want {
			if !got[p] {
				return false
			}
		}
		return true
	}
	for _, c := range cases {
		drivers := make(map[string]bool)
		for _, p := range c.drivers {
			drivers[p] = true
		}
		pos, neg := in.BeforeReads(drivers)
		if !same(pos, c.pos) || !same(neg, c.neg) {
			t.Errorf("drivers %v: Before read for %v, BeforeNeg for %v; want %v, %v", c.drivers, pos, neg, c.pos, c.neg)
		}
	}
}
