package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parser"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {99, 10}, {10, 1}, {0, 1}, {100, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 50}, {20, 50}, {19, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 {
			if beyond := c.n - rankIndex(c.n, p) - 1; beyond < 10 {
				t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, p, beyond)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	var xs []float64
	for i := 1000; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.TailPct != 99 || s.Tail != 990 {
		t.Errorf("summarize = %+v", s)
	}
	if s := summarize([]float64{3, 1, 2}); s.TailPct != 100 || s.Tail != 3 || s.P50 != 2 {
		t.Errorf("small sample: %+v", s)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g", m)
	}
}

func testInputs(t *testing.T, w *workload, seed uint64) *inputs {
	t.Helper()
	in, err := generate(config{w: w, seed: seed}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// schedules draws a load's first open-loop schedule.
func schedules(t *testing.T, w *workload, seed uint64) ([]edge, []request, []request) {
	in := testInputs(t, w, seed)
	q, u := newLoad(w, seed, in).schedule(phase{open: true, dur: 5 * time.Second, rate: w.rate})
	return in.edges, q, u
}

func TestScheduleIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		e1, q1, u1 := schedules(t, w, 7)
		e2, q2, u2 := schedules(t, w, 7)
		if !reflect.DeepEqual(e1, e2) || !reflect.DeepEqual(q1, q2) || !reflect.DeepEqual(u1, u2) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		e3, q3, u3 := schedules(t, w, 8)
		if reflect.DeepEqual(e1, e3) || reflect.DeepEqual(q1, q3) && reflect.DeepEqual(u1, u3) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.name)
		}
		if len(e1) != w.edges {
			t.Errorf("%s: %d edges, want %d", w.name, len(e1), w.edges)
		}
		total := len(q1) + len(u1)
		if want := int(5 * w.rate); total != want || len(u1)*10 != total*w.updatesPer10 {
			t.Errorf("%s: %d queries and %d updates, want %d requests with %d in 10 updates", w.name, len(q1), len(u1), want, w.updatesPer10)
		}
		gap := u1[1].due - u1[0].due
		for i := 1; i < len(u1); i++ {
			if d := u1[i].due - u1[i-1].due; d < gap-time.Microsecond || d > gap+time.Microsecond {
				t.Fatalf("%s: updates %d and %d are %v apart, want evenly spaced at %v", w.name, i-1, i, d, gap)
			}
		}
	}
}

func TestChainClosureIsSeedIndependent(t *testing.T) {
	w := workloads[0]
	prog := parser.MustProgram(w.program)
	for seed := uint64(1); seed <= 3; seed++ {
		in := testInputs(t, w, seed)
		d, err := oracle(prog, core.Stratified, in.initial)
		if err != nil {
			t.Fatal(err)
		}
		seg := w.vertices / w.chains
		if got, want := len(d["s"]), w.chains*seg*(seg-1)/2; got != want {
			t.Errorf("seed %d: |s| = %d, want %d", seed, got, want)
		}
	}
}

// TestUpdateStreamToggles checks the update stream's contract: every
// insert is of an edge between existing vertices that is absent at
// the time, every delete removes an edge the same owner inserted, the
// owners' pairs are disjoint, and each owner keeps a bounded number of
// edges outstanding.
func TestUpdateStreamToggles(t *testing.T) {
	for _, w := range workloads {
		in := testInputs(t, w, 3)
		ld := newLoad(w, 3, in)
		present := map[edge]bool{}
		for e := range in.initial {
			present[e] = true
		}
		mine := map[edge]int{}
		for i := 0; i < 2000; i++ {
			g := ld.owners[i%len(ld.owners)]
			o := g.next()
			for _, e := range o.drop {
				if mine[e] != g.id+1 || !present[e] {
					t.Fatalf("%s: owner %d deletes %v it does not hold", w.name, g.id, e)
				}
				delete(present, e)
				delete(mine, e)
			}
			if len(o.add) != 1 {
				t.Fatalf("%s: update adds %d edges", w.name, len(o.add))
			}
			e := o.add[0]
			if present[e] || e[0] == e[1] || e[0] < 0 || e[1] < 0 || e[0] >= w.vertices || e[1] >= w.vertices {
				t.Fatalf("%s: bad insert %v", w.name, e)
			}
			if owner := mine[e]; owner != 0 {
				t.Fatalf("%s: %v already held by owner %d", w.name, e, owner-1)
			}
			present[e] = true
			mine[e] = g.id + 1
			if i > 100 && len(o.drop) != 1 {
				t.Fatalf("%s: steady-state update %d deletes %d edges", w.name, i, len(o.drop))
			}
		}
		if got, max := len(present)-len(in.initial), w.outstanding*len(ld.owners); got > max {
			t.Errorf("%s: %d edges outstanding, want at most %d", w.name, got, max)
		}
	}
}

func TestOracleCatchesCorruptedAnswer(t *testing.T) {
	w := workloads[0]
	in := testInputs(t, w, 5)
	ld := newLoad(w, 5, in)
	// Three acknowledged updates at generations 1..3.
	for gen := uint64(1); gen <= 3; gen++ {
		g := ld.owners[0]
		g.acked = append(g.acked, ackedOp{gen: gen, op: g.next()})
	}
	e := ld.owners[0].acked[1].op.add[0]
	want, err := oracle(in.prog, in.sem, edbAt(in.edges, ld.owners, 2))
	if err != nil {
		t.Fatal(err)
	}
	good := answer{v: e[0], gen: 2, tuples: expectedAnswer(want, "s", e[0])}
	if len(good.tuples) == 0 {
		t.Fatal("empty answer")
	}
	if _, wrong, err := checkAnswers(w, in.prog, in.sem, in.edges, ld.owners, []answer{good}, 4); err != nil || len(wrong) != 0 {
		t.Fatalf("correct answer rejected: %v %v", wrong, err)
	}
	for name, bad := range map[string]answer{
		"dropped tuple": {v: good.v, gen: 2, tuples: good.tuples[1:]},
		"stale":         {v: good.v, gen: 0, tuples: good.tuples},
	} {
		if name == "stale" && reflect.DeepEqual(expectedAnswer(mustOracle(t, in, ld, 0), "s", e[0]), good.tuples) {
			continue // the update did not change this vertex's answer
		}
		if _, wrong, err := checkAnswers(w, in.prog, in.sem, in.edges, ld.owners, []answer{bad}, 4); err != nil || len(wrong) != 1 {
			t.Errorf("%s answer not caught: %v %v", name, wrong, err)
		}
	}
	// The whole-state comparison catches a corrupted relation too.
	got := db{}
	for k, v := range want {
		got[k] = append([]string(nil), v...)
	}
	got["s"][0] = "v0,v0"
	if diff(got, want) == "" {
		t.Error("diff missed a corrupted tuple")
	}
}

func mustOracle(t *testing.T, in *inputs, ld *load, gen uint64) db {
	t.Helper()
	d, err := oracle(in.prog, in.sem, edbAt(in.edges, ld.owners, gen))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: 1, Name: "child", Start: 30, End: 50},  // overlaps the first
		{ID: 4, Parent: 1, Req: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	// Children cover [10,50) and [90,100): 50 of the root's 100 ns.
	if r := got["root"]; r.SelfMs != 50e-6 || r.TotalMs != 100e-6 {
		t.Errorf("root = %+v", r)
	}
	if c := got["child"]; c.Spans != 3 || c.TotalMs != 80e-6 {
		t.Errorf("child = %+v", c)
	}
}
