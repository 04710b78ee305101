// strata.go — counting and DRed maintenance for stratified evaluation.
//
// The program is split into strata exactly as in semantics.Stratified:
// each stratum is a semipositive program over the results of lower
// strata, evaluated bottom-up, with lower-stratum predicates read as
// EDB from the maintainer's database.  An update enters as EDB changes
// and cascades upward: each stratum turns the changes below it into its
// own net insertions and deletions, which the next stratum consumes —
// insertions acting as deletions through negated literals and vice
// versa.
//
// Nonrecursive strata (no positive own-predicate literal) keep exact
// derivation support counts: membership is count > 0, so an update only
// needs the exact counts of the derivations it enables and disables —
// engine.ApplyDeltasCount with the strict first-driver discipline.
// Recursive strata use DRed: overdelete everything a disabled
// derivation might have supported (evaluated in the old world, via
// pre-update snapshots), rederive what the reduced new world still
// supports, then propagate insertions semi-naively.
//
// An update's cost follows the change, not the relation: each stratum
// reports its net changes from the sets it touched — DRed's net
// deletions are the overdeleted tuples not back in the new state, its
// net insertions the inserted tuples absent from the pre-update view —
// never by diffing whole relations, and counting builds the
// both-worlds (stable) and either-world (ever) copies of a changed
// input only where a delta variant reads them.
package incr

import (
	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/semantics"
)

// stratum is one stratified layer with its own engine instance over the
// maintainer's database.
type stratum struct {
	in        *engine.Instance
	preds     map[string]bool // own IDB predicates
	bodyPreds map[string]bool // predicates read by rule bodies
	recursive bool
	counts    map[string]*relation.Multiset // support counts; nil for recursive strata
}

// initStrata stratifies the program and builds one engine instance per
// stratum over the maintainer's database (which doubles as the working
// database: computed strata are installed into it, so higher strata —
// whose instances treat lower predicates as EDB — read them live).
func (m *Maintainer) initStrata() error {
	strat, err := m.prog.Stratify()
	if err != nil {
		return err
	}
	m.strata = nil
	for k := 0; k < strat.NumStrata(); k++ {
		sub := &ast.Program{Rules: m.prog.RulesForStratum(strat, k)}
		in, err := engine.NewWith(sub, m.db, m.opts)
		if err != nil {
			return err
		}
		s := &stratum{in: in, preds: sub.IDB(), bodyPreds: make(map[string]bool)}
		for _, r := range sub.Rules {
			for _, l := range r.Body {
				if l.Kind == ast.LitPos || l.Kind == ast.LitNeg {
					s.bodyPreds[l.Atom.Pred] = true
					if l.Kind == ast.LitPos && s.preds[l.Atom.Pred] {
						s.recursive = true
					}
				}
			}
		}
		m.strata = append(m.strata, s)
	}
	return nil
}

// evalStrata computes every stratum from scratch, installs the results
// into the database and state, and seeds support counts for the
// nonrecursive strata.
func (m *Maintainer) evalStrata() {
	m.state = make(engine.State)
	for _, s := range m.strata {
		// Each stratum is semipositive over its own predicates, so the
		// inflationary loop computes its least fixpoint.
		st := semantics.InflationaryMode(s.in, semantics.SemiNaive).State
		for pred, rel := range st {
			m.db.Set(pred, rel)
			m.state[pred] = rel
		}
		if !s.recursive {
			s.seedCounts(st)
		}
	}
}

// seedCounts initializes the stratum's support counts: the number of
// rule-body derivations of each tuple at the fixpoint.
func (s *stratum) seedCounts(st engine.State) {
	s.counts = s.in.ApplyCount(st, st)
	for pred := range s.preds {
		if s.counts[pred] == nil {
			s.counts[pred] = relation.NewMultiset(s.in.Arity(pred))
		}
	}
}

// touched reports whether any changed predicate is read by the stratum.
func (s *stratum) touched(ch map[string]*change) bool {
	for pred := range ch {
		if s.bodyPreds[pred] {
			return true
		}
	}
	return false
}

// updateStrata cascades the EDB changes upward through the strata,
// extending ch with each stratum's net IDB changes.
func (m *Maintainer) updateStrata(ch map[string]*change, stats *UpdateStats) {
	for _, s := range m.strata {
		if !s.touched(ch) {
			continue
		}
		var pre, adds, dels engine.State
		if s.counts != nil {
			pre, adds, dels = s.applyCounting(m, ch)
		} else {
			pre, adds, dels = s.applyDRed(m, ch)
		}
		for pred := range s.preds {
			if adds[pred].Empty() && dels[pred].Empty() {
				continue
			}
			ch[pred] = &change{add: adds[pred], del: dels[pred], pre: pre[pred]}
			stats.InsertedIDB += adds[pred].Len()
			stats.DeletedIDB += dels[pred].Len()
		}
	}
}

// applyCounting maintains a nonrecursive stratum exactly through
// support counts.  The disabled pass counts, in the old world (side
// reads against pre-update snapshots), the derivations using at least
// one removed positive tuple or one added negated tuple; the enabled
// pass mirrors it in the new world.  Both use the strict first-driver
// discipline: before the driver, positive literals read the
// both-worlds-stable tuples and negated literals are checked against
// the either-world union, so every derivation is counted exactly once.
func (s *stratum) applyCounting(m *Maintainer, ch map[string]*change) (pre, adds, dels engine.State) {
	in := s.in
	dis := make(map[string]engine.Delta)
	ena := make(map[string]engine.Delta)
	drivers := make(map[string]bool, len(ch))
	for pred := range ch {
		drivers[pred] = s.bodyPreds[pred]
	}
	// stable/ever copy the whole pre-update relation; build them only
	// where some variant reads them (before its driver).
	readPos, readNeg := in.BeforeReads(drivers)
	for pred, c := range ch {
		if !s.bodyPreds[pred] {
			continue
		}
		var stable, ever *relation.Relation
		if readPos[pred] {
			stable = c.stable()
		}
		if readNeg[pred] {
			ever = c.ever()
		}
		d := engine.Delta{Before: stable, BeforeNeg: ever, After: c.pre, AfterNeg: c.pre}
		e := engine.Delta{Before: stable, BeforeNeg: ever}
		if !c.del.Empty() {
			d.PosDriver = c.del
			e.NegDriver = c.del
		}
		if !c.add.Empty() {
			d.NegDriver = c.add
			e.PosDriver = c.add
		}
		dis[pred] = d
		ena[pred] = e
	}
	dec := in.ApplyDeltasCount(m.state, m.state, dis)
	inc := in.ApplyDeltasCount(m.state, m.state, ena)

	pre = make(engine.State, len(s.preds))
	adds, dels = in.NewState(), in.NewState()
	for pred := range s.preds {
		pre[pred] = m.state[pred].Snapshot()
	}
	for pred := range s.preds {
		ms, rel := s.counts[pred], m.state[pred]
		bump := func(src *relation.Multiset, sign int64) {
			if src == nil {
				return
			}
			src.Each(func(t relation.Tuple, n int64) bool {
				if n != 0 {
					ms.Bump(t, sign*n)
				}
				return true
			})
		}
		bump(dec[pred], -1)
		bump(inc[pred], +1)
		settle := func(src *relation.Multiset) {
			if src == nil {
				return
			}
			src.Each(func(t relation.Tuple, _ int64) bool {
				if ms.Count(t) > 0 {
					if rel.Add(t) {
						adds[pred].Add(t)
					}
				} else if rel.Remove(t) {
					dels[pred].Add(t)
				}
				return true
			})
		}
		settle(dec[pred])
		settle(inc[pred])
	}
	return pre, adds, dels
}

// applyDRed maintains a recursive stratum: overdelete in the old world,
// commit, rederive from the reduced new world, then propagate
// insertions semi-naively.  Set-valued throughout, so the relaxed
// (duplicate-tolerant) driver discipline suffices.
func (s *stratum) applyDRed(m *Maintainer, ch map[string]*change) (pre, adds, dels engine.State) {
	in := s.in

	// Old-world view: own predicates via pre-update snapshots, changed
	// inputs via per-literal overrides below.
	pre = make(engine.State, len(s.preds))
	oldPos := make(engine.State, len(m.state))
	for pred, r := range m.state {
		oldPos[pred] = r
	}
	for pred := range s.preds {
		pre[pred] = m.state[pred].Snapshot()
		oldPos[pred] = pre[pred]
	}

	base := make(map[string]engine.Delta)  // disabled drivers + old-world reads
	sides := make(map[string]engine.Delta) // old-world reads only (cascade rounds)
	seed := make(map[string]engine.Delta)  // enabled drivers, new-world reads
	anyDel, anyIns := false, false
	for pred, c := range ch {
		if !s.bodyPreds[pred] {
			continue
		}
		d := engine.Delta{After: c.pre, AfterNeg: c.pre}
		sides[pred] = d
		if !c.del.Empty() {
			d.PosDriver = c.del
			anyDel = true
		}
		if !c.add.Empty() {
			d.NegDriver = c.add
			anyDel = true
		}
		base[pred] = d
		e := engine.Delta{}
		if !c.add.Empty() {
			e.PosDriver = c.add
			anyIns = true
		}
		if !c.del.Empty() {
			e.NegDriver = c.del
			anyIns = true
		}
		if e != (engine.Delta{}) {
			seed[pred] = e
		}
	}

	// 1. Overdelete: everything a dying derivation supported, cascaded
	// through the stratum in the old world.  Cascade rounds run on the
	// frontier contract: emissions already overdeleted are dropped at
	// emit time instead of surviving into a derived state for a Diff.
	dover := in.NewState()
	if anyDel {
		frontier := in.ApplyDeltas(oldPos, oldPos, base)
		for !frontier.Empty() {
			dover.UnionWith(frontier)
			casc := make(map[string]engine.Delta, len(sides)+len(s.preds))
			for pred, d := range sides {
				casc[pred] = d
			}
			drivers := false
			for pred := range s.preds {
				if !frontier[pred].Empty() {
					casc[pred] = engine.Delta{PosDriver: frontier[pred], After: pre[pred], AfterNeg: pre[pred]}
					drivers = true
				}
			}
			if !drivers {
				break
			}
			frontier = in.ApplyDeltasFrontier(oldPos, oldPos, casc, dover)
		}
		for pred := range s.preds {
			rel := m.state[pred]
			dover[pred].Each(func(t relation.Tuple) bool { rel.Remove(t); return true })
		}
	}

	// 2. Rederive: candidates still derivable from the reduced state and
	// the updated inputs come back, repeatedly, until stable.
	cand := dover
	for {
		filter := make(map[string]*relation.Relation)
		for pred := range s.preds {
			if !cand[pred].Empty() {
				filter[pred] = cand[pred]
			}
		}
		if len(filter) == 0 {
			break
		}
		red := in.ApplyWithin(m.state, m.state, filter)
		progress := false
		for pred := range s.preds {
			rel := m.state[pred]
			red[pred].Each(func(t relation.Tuple) bool {
				if rel.Add(t) {
					cand[pred].Remove(t)
					progress = true
				}
				return true
			})
		}
		if !progress {
			break
		}
	}

	// Net deletions: overdeleted tuples neither rederived (cand lost
	// those) nor reinserted below.  Net insertions: inserted tuples
	// that were not there before.  Both come from the touched sets;
	// nothing here is proportional to the whole relation.
	adds, dels = in.NewState(), in.NewState()

	// 3. Insert: derivations the update enables, propagated semi-naively
	// through the stratum in the new world, filtered against the already
	// materialized own-predicate state at emit time — the same round
	// body as the from-scratch fixpoint loop.
	if anyIns {
		frontier := in.ApplyDeltasFrontier(m.state, m.state, seed, ownState(m.state, s.preds))
		for !frontier.Empty() {
			for pred := range s.preds {
				rel, old, add := m.state[pred], pre[pred], adds[pred]
				frontier[pred].Each(func(t relation.Tuple) bool {
					rel.Add(t)
					if !old.Has(t) {
						add.Add(t)
					}
					return true
				})
			}
			next := make(map[string]engine.Delta, len(s.preds))
			for pred := range s.preds {
				if !frontier[pred].Empty() {
					next[pred] = engine.Delta{PosDriver: frontier[pred]}
				}
			}
			frontier = in.ApplyDeltasFrontier(m.state, m.state, next, ownState(m.state, s.preds))
		}
	}

	for pred := range s.preds {
		rel, del := m.state[pred], dels[pred]
		cand[pred].Each(func(t relation.Tuple) bool {
			if !rel.Has(t) {
				del.Add(t)
			}
			return true
		})
	}
	return pre, adds, dels
}

// ownState restricts a state to the given predicates.
func ownState(st engine.State, preds map[string]bool) engine.State {
	out := make(engine.State, len(preds))
	for pred := range preds {
		out[pred] = st[pred]
	}
	return out
}
