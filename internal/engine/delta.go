// delta.go — generalized delta evaluation for incremental maintenance.
//
// The semi-naive loop, counting maintenance, and DRed-style
// delete/rederive all need the same primitive: "the derivations of
// Θ whose body touches a given change", for changes to arbitrary
// predicates (EDB or IDB), driving positive literals (a tuple the
// literal can newly/no-longer read) or negated literals (a tuple whose
// arrival/departure flips the check).  ApplyDeltas generalizes
// ApplyDelta to that primitive; ApplyWithin restricts evaluation to a
// candidate head set (the rederivation step of DRed); the *Count
// variants return exact derivation counts (the counting algorithm).
//
// Each qualifying derivation is enumerated exactly once: the literal
// positions a change can drive are ordered (positives in body order,
// then negatives), and the variant whose driver is at position v forces
// positions before v to be non-drivers.  "Non-driver" reads come from
// the Delta's Before/BeforeNeg relations when the caller provides them
// — exact counting needs them — and fall back to the after-driver
// relations otherwise, which can enumerate a derivation once per driver
// it contains; harmless for set-valued passes.
package engine

import "repro/internal/relation"

// Delta describes how one predicate participates in a delta pass.  Any
// field may be nil.  For a positive literal over the predicate, the
// evaluation reads PosDriver at the driver position, Before strictly
// before it, and After (or, when nil, the instance's default resolution
// through the pos state / database) after it.  For a negated literal,
// NegDriver is joined as if the literal were positive at the driver
// position — the tuples whose arrival or departure flips the check —
// while non-driver positions check the literal against BeforeNeg /
// AfterNeg (or the default resolution when nil).
type Delta struct {
	PosDriver *relation.Relation
	NegDriver *relation.Relation
	Before    *relation.Relation
	BeforeNeg *relation.Relation
	After     *relation.Relation
	AfterNeg  *relation.Relation
}

// ApplyDeltas returns the tuples derivable by rule applications driven
// by at least one delta: a PosDriver tuple read by a positive literal,
// or a NegDriver tuple matched by a negated literal (which is then
// evaluated as a join over the driver set instead of a check).
// Literals of predicates without a Delta entry resolve as in ApplySplit:
// positive IDB literals against pos, negated IDB literals against neg,
// EDB literals against the database.
func (in *Instance) ApplyDeltas(pos, neg State, deltas map[string]Delta) State {
	return in.runTasks(in.deltaTasks(deltas), pos, neg, runOpts{shard: true})
}

// ApplyDeltasCount is ApplyDeltas in counting mode: it returns, per
// head predicate, each derived tuple with the number of distinct
// driven derivations.  Counts are exact when every Delta carries the
// Before/BeforeNeg relations making the first-driver discipline strict.
func (in *Instance) ApplyDeltasCount(pos, neg State, deltas map[string]Delta) map[string]*relation.Multiset {
	return in.runTasksCount(in.deltaTasks(deltas), pos, neg)
}

// ApplyCount evaluates every rule against (pos, neg) like ApplySplit,
// but returns derivation counts: for each derivable tuple, the number
// of distinct rule-body embeddings deriving it.  This is the initial
// support count of the counting maintenance algorithm.
func (in *Instance) ApplyCount(pos, neg State) map[string]*relation.Multiset {
	return in.runTasksCount(in.fullTasks(), pos, neg)
}

// ApplyWithin evaluates the rules whose head predicate appears in
// filter, restricted to derivations whose head tuple lies in the
// corresponding filter relation — the rederivation step of DRed.  The
// restriction is compiled as an extra positive literal over the head's
// argument slots, so the join planner starts from the (small) filter
// set and evaluates the body with the head variables bound.
func (in *Instance) ApplyWithin(pos, neg State, filter map[string]*relation.Relation) State {
	var tasks []evalTask
	for _, rp := range in.plans {
		f := filter[rp.headPred]
		if f == nil || f.Empty() {
			continue
		}
		rp2 := &rulePlan{
			src:       rp.src,
			headPred:  rp.headPred,
			headSlots: rp.headSlots,
			nvars:     rp.nvars,
			varNames:  rp.varNames,
			negatives: rp.negatives,
			cmps:      rp.cmps,
		}
		rp2.positives = make([]litPlan, len(rp.positives), len(rp.positives)+1)
		copy(rp2.positives, rp.positives)
		rp2.positives = append(rp2.positives, litPlan{pred: rp.headPred, slots: rp.headSlots})
		tasks = append(tasks, evalTask{
			rp:     rp2,
			pos:    map[int]*relation.Relation{len(rp2.positives) - 1: f},
			driver: len(rp2.positives) - 1,
		})
	}
	return in.runTasks(tasks, pos, neg, runOpts{shard: true})
}

// BeforeReads reports which predicates a delta pass driven by the
// predicates in drivers reads strictly before its driver position:
// pos[p] when some variant reads a positive literal over p there (it
// consults Delta.Before), neg[p] when it checks a negated one there
// (Delta.BeforeNeg).  Positions rank exactly as in deltaTasks, and
// every literal over a driver predicate counts as a driver position.
// Callers that build Before/BeforeNeg relations only for these
// predicates build nothing the pass never reads.
func (in *Instance) BeforeReads(drivers map[string]bool) (pos, neg map[string]bool) {
	pos, neg = make(map[string]bool), make(map[string]bool)
	for _, rp := range in.plans {
		last := -1 // rank of the rule's last driver position
		for i, lp := range rp.positives {
			if drivers[lp.pred] {
				last = i
			}
		}
		for j, np := range rp.negatives {
			if drivers[np.pred] {
				last = len(rp.positives) + j
			}
		}
		for i, lp := range rp.positives {
			if i < last {
				pos[lp.pred] = true
			}
		}
		for j, np := range rp.negatives {
			if len(rp.positives)+j < last {
				neg[np.pred] = true
			}
		}
	}
	return pos, neg
}

// flipNeg returns a variant of rp where the j-th negated literal is
// evaluated as a positive join (its relation supplied by an override on
// the returned literal index) and dropped from the negation checks.
func flipNeg(rp *rulePlan, j int) (*rulePlan, int) {
	np := rp.negatives[j]
	rp2 := &rulePlan{
		src:       rp.src,
		headPred:  rp.headPred,
		headSlots: rp.headSlots,
		nvars:     rp.nvars,
		varNames:  rp.varNames,
		cmps:      rp.cmps,
	}
	rp2.positives = make([]litPlan, len(rp.positives), len(rp.positives)+1)
	copy(rp2.positives, rp.positives)
	rp2.positives = append(rp2.positives, litPlan{pred: np.pred, idb: np.idb, slots: np.slots})
	rp2.negatives = make([]negPlan, 0, len(rp.negatives)-1)
	rp2.negatives = append(rp2.negatives, rp.negatives[:j]...)
	rp2.negatives = append(rp2.negatives, rp.negatives[j+1:]...)
	return rp2, len(rp2.positives) - 1
}

// deltaTasks compiles the (rule, driver-position) variants of a delta
// pass.  Positions are ranked positives-then-negatives in body order;
// the variant with its driver at rank v overrides earlier
// delta-predicate positions with their Before/BeforeNeg relations and
// later ones with After/AfterNeg, nil falling through as documented on
// Delta.
func (in *Instance) deltaTasks(deltas map[string]Delta) []evalTask {
	var tasks []evalTask
	for _, rp := range in.plans {
		type driver struct {
			flip bool // negated-literal driver
			idx  int  // literal index within its kind
			rank int  // global position rank
		}
		var drivers []driver
		for i, lp := range rp.positives {
			if d, ok := deltas[lp.pred]; ok && d.PosDriver != nil {
				drivers = append(drivers, driver{idx: i, rank: i})
			}
		}
		for j, np := range rp.negatives {
			if d, ok := deltas[np.pred]; ok && d.NegDriver != nil {
				drivers = append(drivers, driver{flip: true, idx: j, rank: len(rp.positives) + j})
			}
		}
		for _, dv := range drivers {
			rp2 := rp
			flipIdx := -1
			if dv.flip {
				rp2, flipIdx = flipNeg(rp, dv.idx)
			}
			driverLit := dv.idx // positive-literal index of the driver
			if dv.flip {
				driverLit = flipIdx
			}
			posOv := make(map[int]*relation.Relation)
			negOv := make(map[int]*relation.Relation)
			for i, lp := range rp.positives {
				d, ok := deltas[lp.pred]
				if !ok {
					continue
				}
				switch {
				case !dv.flip && i == dv.idx:
					posOv[i] = d.PosDriver
				case i < dv.rank:
					if r := coalesce(d.Before, d.After); r != nil {
						posOv[i] = r
					}
				default:
					if d.After != nil {
						posOv[i] = d.After
					}
				}
			}
			for j, np := range rp.negatives {
				if dv.flip && j == dv.idx {
					continue
				}
				d, ok := deltas[np.pred]
				if !ok {
					continue
				}
				j2 := j
				if dv.flip && j > dv.idx {
					j2 = j - 1
				}
				if len(rp.positives)+j < dv.rank {
					if r := coalesce(d.BeforeNeg, d.AfterNeg); r != nil {
						negOv[j2] = r
					}
				} else if d.AfterNeg != nil {
					negOv[j2] = d.AfterNeg
				}
			}
			if dv.flip {
				posOv[flipIdx] = deltas[rp.negatives[dv.idx].pred].NegDriver
			}
			tasks = append(tasks, evalTask{rp: rp2, pos: posOv, neg: negOv, driver: driverLit})
		}
	}
	return tasks
}

// coalesce returns the first non-nil relation.
func coalesce(a, b *relation.Relation) *relation.Relation {
	if a != nil {
		return a
	}
	return b
}
