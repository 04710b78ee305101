package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/parser"
	"repro/internal/relation"
)

// workerSweep is the worker-count matrix of the frontier acceptance
// tests: sequential, minimal parallelism, and the full pool.
func workerSweep() []int {
	sweep := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		sweep = append(sweep, n)
	} else {
		sweep = append(sweep, 8) // oversubscribe: scheduling must not matter
	}
	return sweep
}

// TestPropFrontierMatchesDeriveDiff is the tentpole acceptance property:
// over randomized programs, databases, worker counts, and sharding
// settings, the frontier entry points return exactly what the
// derive+Diff oracle computes — per Θ application, per semi-naive
// round, and at the inflationary fixpoint.
func TestPropFrontierMatchesDeriveDiff(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := randomProgram(rng)
		prog, err := parser.Program(src)
		if err != nil {
			t.Fatalf("seed %d: generated unparsable program:\n%s\n%v", seed, src, err)
		}
		db := randomEdgeDB(rng, 4, 0.4)
		for i := 0; i < 4; i++ {
			if rng.Intn(2) == 0 {
				db.AddFact("V", fmt.Sprint(i))
			}
		}

		oracle := MustNew(prog, db.Clone())
		oracle.SetFrontier(false)
		oracle.SetSharding(false)
		oracle.SetWorkers(1)

		// Build reference stages with the oracle.
		s0 := oracle.NewState()
		s1 := oracle.Apply(s0)
		s2 := s1.Clone()
		s2.UnionWith(oracle.Apply(s1))
		delta := s2.Diff(s1)

		wantTheta := oracle.ApplySplitFrontier(s2, s2, s2)
		wantRound := oracle.ApplyDeltaSplitFrontier(s1, delta, s2, s2)

		for _, nw := range workerSweep() {
			for _, shard := range []bool{false, true} {
				in := MustNew(prog, db.Clone())
				in.SetFrontier(true)
				in.SetSharding(shard)
				in.SetWorkers(nw)
				if got := in.ApplySplitFrontier(s2, s2, s2); !got.Equal(wantTheta) {
					t.Fatalf("seed %d workers %d shard %v: ApplySplitFrontier differs\nprogram:\n%s\ngot:\n%v\nwant:\n%v",
						seed, nw, shard, src, got.Format(db.Universe()), wantTheta.Format(db.Universe()))
				}
				if got := in.ApplyDeltaSplitFrontier(s1, delta, s2, s2); !got.Equal(wantRound) {
					t.Fatalf("seed %d workers %d shard %v: ApplyDeltaSplitFrontier differs\nprogram:\n%s",
						seed, nw, shard, src)
				}
			}
		}
	}
}

// inflateFrontier iterates the inflationary operator on the frontier
// contract to its fixpoint.
func inflateFrontier(in *Instance) State {
	cur := in.Apply(in.NewState())
	for {
		nd := in.ApplySplitFrontier(cur, cur, cur)
		if nd.Empty() {
			return cur
		}
		cur.UnionDisjoint(nd)
	}
}

// inflateFrontierSemiNaive is the semi-naive variant: rounds pass the
// previous delta as driver, exactly like semantics.lfpLoop, so big
// deltas flow through the hint-driven partitioned merge.
func inflateFrontierSemiNaive(in *Instance) State {
	prev := in.NewState()
	cur := in.Apply(prev)
	delta := cur.Snapshot()
	for !delta.Empty() {
		nd := in.ApplyDeltaSplitFrontier(prev, delta, cur, cur)
		if nd.Empty() {
			break
		}
		prev = cur.Snapshot()
		cur.UnionDisjoint(nd)
		delta = nd
	}
	return cur
}

// TestFrontierFixpointMatchesOracle runs whole inflationary evaluations
// on the frontier contract across worker counts and compares the final
// states against the knob-off oracle.
func TestFrontierFixpointMatchesOracle(t *testing.T) {
	prog := parser.MustProgram(multiRuleSrc)
	db := randomEdgeDB(rand.New(rand.NewSource(5)), 10, 0.2)

	oracle := MustNew(prog, db.Clone())
	oracle.SetFrontier(false)
	oracle.SetSharding(false)
	oracle.SetWorkers(1)
	want := inflateFrontier(oracle)

	for _, nw := range workerSweep() {
		in := MustNew(prog, db.Clone())
		in.SetFrontier(true)
		in.SetWorkers(nw)
		if got := inflateFrontier(in); !got.Equal(want) {
			t.Fatalf("frontier fixpoint differs with %d workers", nw)
		}
	}
}

// TestShardedPartitionedMerge drives the intra-rule sharding and the
// hash-partitioned merge on a workload big enough to trigger both: a
// transitive closure whose per-round deltas exceed partitionThreshold,
// evaluated by a 2-rule program on a many-worker pool (more workers
// than tasks, so every round must shard its driver).
func TestShardedPartitionedMerge(t *testing.T) {
	src := "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y)."
	prog := parser.MustProgram(src)
	db := randomEdgeDB(rand.New(rand.NewSource(42)), 48, 0.2)

	oracle := MustNew(prog, db.Clone())
	oracle.SetFrontier(false)
	oracle.SetSharding(false)
	oracle.SetWorkers(1)
	want := inflateFrontierSemiNaive(oracle)
	if want["s"].Len() < partitionThreshold {
		t.Fatalf("fixture too small to exercise partitioned merge: |s| = %d", want["s"].Len())
	}

	for _, nw := range []int{2, 4, 8} {
		in := MustNew(prog, db.Clone())
		in.SetFrontier(true)
		in.SetSharding(true)
		in.SetWorkers(nw)
		if got := inflateFrontierSemiNaive(in); !got.Equal(want) {
			t.Fatalf("sharded+partitioned fixpoint differs with %d workers", nw)
		}
	}
}

// TestFrontierZeroAllocs extends the TestJoinProbeZeroAllocs guard to
// the frontier path: once the fixpoint is reached, a frontier pass
// re-derives only tuples the filter drops at emit time, so allocations
// per pass must stay a small constant — the membership probe and the
// discarded emission allocate nothing per tuple.
func TestFrontierZeroAllocs(t *testing.T) {
	for _, n := range []int{12, 28} {
		rng := rand.New(rand.NewSource(3))
		db := randomEdgeDB(rng, n, 0.3)
		in := MustNew(parser.MustProgram("tri(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X)."), db)
		in.SetWorkers(1)
		in.SetFrontier(true)
		fix := in.Apply(in.NewState()) // warm indexes, derive all triangles
		allocs := testing.AllocsPerRun(10, func() { in.ApplySplitFrontier(fix, fix, fix) })
		if allocs > 64 {
			t.Errorf("n=%d: %v allocs per frontier pass, want fixed overhead ≤ 64", n, allocs)
		}
	}
}

// TestFrontierKnobs covers the tri-state frontier and sharding
// selectors: explicit, process default, and the on-by-default fallback.
func TestFrontierKnobs(t *testing.T) {
	in := MustNew(parser.MustProgram("s(X,Y) :- E(X,Y)."), pathDB(3))
	if !in.FrontierEval() || !in.Sharding() {
		t.Error("frontier and sharding should default to on")
	}
	SetDefaultFrontier(false)
	SetDefaultSharding(false)
	if in.FrontierEval() || in.Sharding() {
		t.Error("process defaults off not honored")
	}
	in.SetFrontier(true)
	in.SetSharding(true)
	if !in.FrontierEval() || !in.Sharding() {
		t.Error("explicit on overridden by process default")
	}
	SetDefaultFrontier(true)
	SetDefaultSharding(true)
	in.SetFrontier(false)
	in.SetSharding(false)
	if in.FrontierEval() || in.Sharding() {
		t.Error("explicit off overridden by process default")
	}
	in.SetFrontier(true)
	in.SetSharding(true)
}

// TestExpandShardsPartition checks the shard expansion invariants
// directly: shard ranges partition the driver's arena exactly, and
// tasks whose driver is too small pass through unchanged.
func TestExpandShardsPartition(t *testing.T) {
	prog := parser.MustProgram("s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).")
	db := randomEdgeDB(rand.New(rand.NewSource(9)), 40, 0.3)
	in := MustNew(prog, db)
	s := in.Apply(in.NewState())

	tasks := in.fullTasks()
	expanded := in.expandShards(tasks, s, 8)
	if len(expanded) <= len(tasks) {
		t.Fatalf("expected shard expansion, got %d tasks from %d", len(expanded), len(tasks))
	}
	// Group shards by rule and verify each sharded rule's ranges tile
	// [0, n) without gaps or overlaps.
	covered := make(map[*rulePlan]int32)
	for _, task := range expanded {
		if task.shardHi == 0 {
			continue
		}
		if task.shardLo != covered[task.rp] {
			t.Fatalf("shard ranges of rule %v do not tile: next starts at %d, expected %d",
				task.rp.src, task.shardLo, covered[task.rp])
		}
		if task.shardHi <= task.shardLo {
			t.Fatalf("empty shard range [%d, %d)", task.shardLo, task.shardHi)
		}
		covered[task.rp] = task.shardHi
	}
	if len(covered) == 0 {
		t.Fatal("no rule was sharded")
	}
	for rp, hi := range covered {
		_, rel := in.shardTarget(evalTask{rp: rp, driver: -1}, s)
		if int(hi) != rel.Len() {
			t.Fatalf("rule %v: shards cover [0, %d), driver has %d tuples", rp.src, hi, rel.Len())
		}
	}
}

// TestOffsetsInRange pins the shard-aware index probe helper.
func TestOffsetsInRange(t *testing.T) {
	offs := []int32{2, 3, 7, 11, 12, 30}
	cases := []struct {
		lo, hi int32
		want   []int32
	}{
		{0, 31, []int32{2, 3, 7, 11, 12, 30}},
		{3, 12, []int32{3, 7, 11}},
		{4, 7, nil},
		{12, 12, nil},
		{13, 5, nil},
	}
	for _, c := range cases {
		got := relation.OffsetsInRange(offs, c.lo, c.hi)
		if len(got) != len(c.want) {
			t.Errorf("OffsetsInRange(%v, %d, %d) = %v, want %v", offs, c.lo, c.hi, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("OffsetsInRange(%v, %d, %d) = %v, want %v", offs, c.lo, c.hi, got, c.want)
				break
			}
		}
	}
}
