package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/relation"
)

// oracleOf builds the oracle configuration of prog over db: syntactic
// planner (single-column probes, never the full-key path), derive+Diff
// instead of the frontier, no sharding, one worker.
func oracleOf(t *testing.T, src string, db *relation.Database) *Instance {
	t.Helper()
	in := MustNew(parser.MustProgram(src), db)
	in.SetCostPlanner(false)
	in.SetFrontier(false)
	in.SetSharding(false)
	in.SetWorkers(1)
	return in
}

// TestFullKeyJoinMatchesOracle evaluates programs whose plans end a
// join with every column of a literal bound — EDB and IDB literals,
// bound by variables and by constants — and checks the fixpoint
// against the oracle configuration, serially and with sharded workers.
func TestFullKeyJoinMatchesOracle(t *testing.T) {
	progs := []string{
		"tri(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).",
		"sym(X,Y) :- E(X,Y), E(Y,X).",
		"s(X,Y) :- E(X,Y).\ns(X,Y) :- s(X,Z), E(Z,Y).\nc(X,Y) :- E(X,Z), E(Z,Y), s(X,Y).",
		"k(X) :- E(X,Y), E(0,1).",
	}
	for _, src := range progs {
		for _, seed := range []int64{1, 2, 3} {
			db := randomEdgeDB(rand.New(rand.NewSource(seed)), 12, 0.3)
			want := inflate(oracleOf(t, src, db.Clone()))
			for _, nw := range []int{1, 4} {
				in := MustNew(parser.MustProgram(src), db.Clone())
				in.SetWorkers(nw)
				if got := inflateFrontierSemiNaive(in); !got.Equal(want) {
					t.Fatalf("%q seed %d workers %d: full-key fixpoint differs from the oracle", src, seed, nw)
				}
				if seed == 1 && nw == 1 {
					var ex strings.Builder
					in.Explain(&ex, want)
					if !strings.Contains(ex.String(), " key ") {
						t.Fatalf("%q: no join compiled to a primary-key probe:\n%s", src, ex.String())
					}
				}
			}
		}
	}
}

// TestFullKeyShardRange splits a rule whose driving literal is fully
// bound by constants, E(a,b), into arena-range shards: exactly one
// shard holds E(a,b)'s offset, so the derivation counts summed over
// every shard must equal the unsharded counts.  A full-key probe that
// ignored [shardLo, shardHi) would count each derivation once per shard.
func TestFullKeyShardRange(t *testing.T) {
	db := relation.NewDatabase()
	for i := 0; i < 300; i++ {
		db.AddFact("E", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", (i*7+1)%300))
	}
	db.AddFact("E", "a", "b")
	for i := 0; i < 40; i++ {
		db.AddFact("E", fmt.Sprintf("m%d", i), "b")
	}
	for i := 0; i < 5; i++ {
		db.AddFact("F", fmt.Sprintf("f%d", i))
	}
	src := "p(X) :- E(a,b), F(X)."
	in := MustNew(parser.MustProgram(src), db)
	s := in.NewState()
	shards := in.expandShards(in.fullTasks(), s, 4)
	if len(shards) < 2 {
		t.Fatalf("rule split into %d shards, want several", len(shards))
	}
	if shards[0].shardLit != 0 {
		t.Fatalf("shard literal %d, want the fully bound E(a,b)", shards[0].shardLit)
	}
	total := relation.NewMultiset(1)
	for _, sh := range shards {
		if ms := in.runTasksCount([]evalTask{sh}, s, s)["p"]; ms != nil {
			total.MergeFrom(ms)
		}
	}
	want := in.ApplyCount(s, s)["p"]
	if total.Len() != 5 || want.Len() != 5 {
		t.Fatalf("sharded count has %d tuples, unsharded %d, want 5", total.Len(), want.Len())
	}
	want.Each(func(tu relation.Tuple, n int64) bool {
		if got := total.Count(tu); got != n {
			t.Errorf("p%v counted %d times over the shards, want %d", tu, got, n)
		}
		return true
	})
	if got := in.ApplySplit(s, s)["p"].Len(); got != 5 {
		t.Fatalf("sharded Apply derived %d tuples, want 5", got)
	}
}

// TestFullKeySpillTuples probes a full key whose tuples spill (arity 8
// packs ids below 256 only) and checks the result against the oracle.
func TestFullKeySpillTuples(t *testing.T) {
	db := relation.NewDatabase()
	for i := 0; i < 300; i++ {
		db.AddConstant(fmt.Sprintf("c%d", i))
	}
	row := func(base int) []string {
		out := make([]string, 8)
		for j := range out {
			out[j] = fmt.Sprintf("c%d", (base+j*37)%300)
		}
		return out
	}
	for i := 0; i < 60; i++ {
		db.AddFact("G", row(i*5)...)
		if i%3 == 0 {
			db.AddFact("K", row(i*5)...) // in G
		}
		if i%4 == 0 {
			db.AddFact("K", row(i*5+1)...) // not in G
		}
	}
	src := "w(A,H) :- K(A,B,C,D,X,F,I,H), G(A,B,C,D,X,F,I,H)."
	want := inflate(oracleOf(t, src, db.Clone()))
	in := MustNew(parser.MustProgram(src), db)
	if got := inflateFrontierSemiNaive(in); !got.Equal(want) {
		t.Fatalf("spill full-key fixpoint differs from the oracle")
	}
	if n := want["w"].Len(); n != 20 {
		t.Fatalf("oracle derived %d tuples, want 20", n)
	}
	spilled := false
	db.Relation("G").Each(func(tu relation.Tuple) bool {
		for _, v := range tu {
			spilled = spilled || v >= 256
		}
		return !spilled
	})
	if !spilled {
		t.Fatal("no G tuple holds an id beyond the packed width")
	}
	var ex strings.Builder
	in.Explain(&ex, want)
	if !strings.Contains(ex.String(), " key ") {
		t.Fatalf("the G join is not a primary-key probe:\n%s", ex.String())
	}
}
