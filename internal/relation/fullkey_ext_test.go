package relation_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/semantics"
)

// TestNoFullKeyIndexAnywhere drives a stratified maintainer (DRed for
// the recursive stratum, counting for the negated one) through random
// edge updates.  DRed's rederive plan binds both columns of s(X,Z);
// that probe must resolve on the primary key, so no relation — live or
// published — ever holds a composite index over every column.
func TestNoFullKeyIndexAnywhere(t *testing.T) {
	const src = "s(X,Y) :- E(X,Y).\ns(X,Y) :- s(X,Z), E(Z,Y).\noneway(X,Y) :- E(X,Y), !s(Y,X)."
	prog := parser.MustProgram(src)
	const n = 24
	rng := rand.New(rand.NewSource(5))
	db := graphs.Random(rng, n, 0.1).Database()
	m, err := incr.New(prog, db, core.Stratified)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step int, rels map[string]*relation.Relation) {
		for name, r := range rels {
			if relation.HasFullKeyIndex(r) {
				t.Fatalf("step %d: %s holds an all-column composite index", step, name)
			}
		}
	}
	for step := 0; step < 40; step++ {
		f := incr.Fact{Pred: "E", Args: []string{graphs.VertexName(rng.Intn(n)), graphs.VertexName(rng.Intn(n))}}
		var ins, del []incr.Fact
		if step%2 == 0 {
			ins = []incr.Fact{f}
		} else {
			// Delete an edge s depends on, so DRed overdeletes and rederives.
			var e relation.Tuple
			m.Snapshot().Rels["E"].Each(func(t relation.Tuple) bool { e = t; return rng.Intn(4) != 0 })
			if e == nil {
				continue
			}
			u := m.Universe()
			del = []incr.Fact{{Pred: "E", Args: []string{u.Name(e[0]), u.Name(e[1])}}}
		}
		if _, err := m.Update(ins, del); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		check(step, m.State())
		check(step, m.Snapshot().Rels)
	}
	res, err := core.Eval(prog, db, core.Stratified, semantics.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	check(-1, res.State)
}
