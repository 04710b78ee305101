package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/graphs"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/semantics"
)

func init() {
	register(Experiment{
		ID:     "E18",
		Title:  "dedup path: packed-key table vs the Go-map baseline",
		Source: "engineering (ROADMAP: dedup-path data structures)",
		Run:    runE18,
	})
}

// runE18 evaluates the 2-rule transitive closure and the Proposition 2
// distance program under inflationary semantics with packed-key storage
// in both modes: the open-addressing table and the Go-map baseline.
// The claim under test is bit-exactness — identical relations AND
// identical round/delta statistics in both cells, because the table
// only changes how a membership probe is answered, never its answer.
// Timing cells are hardware-dependent.
func runE18(w io.Writer, quick bool) error {
	tcN, tcP, distN, distP := 64, 0.06, 14, 0.25
	if quick {
		tcN, tcP, distN, distP = 40, 0.08, 10, 0.25
	}
	cases := []struct {
		name string
		src  string
		db   func() *relation.Database
	}{
		{fmt.Sprintf("tc/G(%d,%.2f)", tcN, tcP), tcSrc,
			func() *relation.Database { return graphs.Random(newRNG(int64(tcN)), tcN, tcP).Database() }},
		{fmt.Sprintf("distance/G(%d,%.2f)", distN, distP), distanceSrc,
			func() *relation.Database { return graphs.Random(newRNG(int64(distN)), distN, distP).Database() }},
	}

	// The packed-table knob is process-wide and sampled at Relation
	// construction, so each cell builds its database and instance with
	// the knob set; the deferred restore covers error exits.
	defer relation.SetDefaultPackedTable(true)

	t := newTable(w, "workload", "table", "tuples", "rounds", "t(base)", "t(cell)", "speedup", "check")
	c := &checker{}
	for _, cs := range cases {
		prog := parser.MustProgram(cs.src)

		// Oracle cell: map storage — the seed's dedup path.
		relation.SetDefaultPackedTable(false)
		ref := engine.MustNew(prog, cs.db())
		startRef := time.Now()
		want := semantics.Inflationary(ref)
		durRef := time.Since(startRef)

		for _, table := range []bool{false, true} {
			relation.SetDefaultPackedTable(table)
			in := engine.MustNew(prog, cs.db())
			start := time.Now()
			got := semantics.Inflationary(in)
			dur := time.Since(start)

			ok := got.State.Equal(want.State) && got.Stats == want.Stats
			t.row(cs.name, onOff(table), got.Stats.Tuples, got.Stats.Rounds,
				ms(durRef), ms(dur),
				fmt.Sprintf("%.2fx", float64(durRef)/float64(dur)),
				c.verdict(ok, fmt.Sprintf("%s/table=%v", cs.name, table)))
		}
	}
	t.flush()
	fmt.Fprintln(w, "    note: identical relations and stage statistics in both cells — the table")
	fmt.Fprintln(w, "    changes how a dedup probe is answered, never the answer.")
	return c.err()
}

// onOff renders an ablation-cell toggle.
func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
