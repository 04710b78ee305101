// frontier.go — dedup-at-emit derivation and intra-rule sharding.
//
// Every semantics the paper discusses reduces to repeated application
// of Θ, and each repeated round used to triple-handle every tuple:
// derive into a fresh state, Diff against the accumulated state, then
// UnionWith back into it — three hash passes, two of them over tuples
// that are almost always duplicates of what the state already holds.
//
// The frontier contract fuses the three: the *Frontier entry points
// filter every emission against an accumulated state at emit time (a
// read-only membership probe inside the compiled bind/check loop, see
// Relation.AddNotIn) and insert genuinely-new tuples straight into the
// per-predicate delta.  The returned state IS the next delta; callers
// union it into the accumulated state and continue.  That exact probe
// is the only dedup the semi-naive round has: every fixpoint loop of
// the semantics package and every propagation round of the incremental
// maintainer runs the same ApplyDeltaSplitFrontier/ApplyDeltasFrontier
// body.  SetFrontier(false) restores the derive+Diff pipeline behind
// the same entry points — the property-test oracle and the ablation
// baseline, exactly like the SetCostPlanner knob.
//
// Orthogonally, intra-rule sharding keeps every worker busy when a
// program has fewer rule tasks than the pool has workers: a task's
// driver relation (the semi-naive delta, or the first planned literal
// of a full application) is split into arena-range shards, one task per
// shard, each restricted to its range.  The ranges partition the
// driving enumeration, so every derivation belongs to exactly one shard
// and the union of the shard outputs is exactly the unsharded output.
// SetSharding(false) disables the expansion.
package engine

import (
	"sync/atomic"

	"repro/internal/relation"
)

// ApplySplitFrontier is ApplySplit filtered against an accumulated
// state: it returns exactly ApplySplit(pos, neg).Diff(against), without
// materializing the intermediate state when the frontier path is
// enabled.
func (in *Instance) ApplySplitFrontier(pos, neg, against State) State {
	if !in.FrontierEval() {
		return diffAgainst(in.runTasks(in.fullTasks(), pos, neg, runOpts{shard: true}), against)
	}
	return in.runTasks(in.fullTasks(), pos, neg, runOpts{frontier: against, shard: true})
}

// ApplyDeltaSplitFrontier is the semi-naive round of the frontier
// contract: it returns exactly ApplyDeltaSplit(old, delta, cur,
// neg).Diff(cur) — the genuinely-new tuples of the round — inserting
// them straight into the per-predicate delta it returns.  Output
// relations are pre-sized from the incoming delta's cardinality (the
// best available estimate of the next round's).
func (in *Instance) ApplyDeltaSplitFrontier(old, delta, cur, neg State) State {
	deltas := make(map[string]Delta, len(delta))
	hints := make(map[string]int, len(delta))
	for pred, d := range delta {
		deltas[pred] = Delta{PosDriver: d, Before: old[pred]}
		if n := d.Len(); n > 0 {
			hints[pred] = n
		}
	}
	if !in.FrontierEval() {
		return diffAgainst(in.runTasks(in.deltaTasks(deltas), cur, neg, runOpts{shard: true}), cur)
	}
	return in.runTasks(in.deltaTasks(deltas), cur, neg, runOpts{frontier: cur, hints: hints, shard: true})
}

// ApplyDeltasFrontier is ApplyDeltas filtered against an accumulated
// state: it returns exactly ApplyDeltas(pos, neg, deltas).Diff(against).
// The DRed delete/rederive and insert-propagation loops of the
// incremental maintainer run on it.
func (in *Instance) ApplyDeltasFrontier(pos, neg State, deltas map[string]Delta, against State) State {
	if !in.FrontierEval() {
		return diffAgainst(in.runTasks(in.deltaTasks(deltas), pos, neg, runOpts{shard: true}), against)
	}
	return in.runTasks(in.deltaTasks(deltas), pos, neg, runOpts{frontier: against, shard: true})
}

// diffAgainst is the derive+Diff fallback: the per-predicate difference
// derived ∖ against, tolerating predicates absent from against.
func diffAgainst(derived, against State) State {
	out := make(State, len(derived))
	for pred, r := range derived {
		if a := against[pred]; a != nil {
			out[pred] = r.Diff(a)
		} else {
			out[pred] = r
		}
	}
	return out
}

// defaultFrontierOff and defaultShardingOff are the process-wide
// defaults for instances without explicit Set calls, mirroring
// defaultPlannerOff: drivers toggle them for instances they do not
// construct.  Both paths are on by default.
var (
	defaultFrontierOff atomic.Bool
	defaultShardingOff atomic.Bool
)

// SetDefaultFrontier sets the process-wide default for instances
// without an explicit SetFrontier call.  On by default.
//
// Deprecated: prefer Options.Frontier per call; this setter remains as
// the fallback a ToggleDefault resolves to.
func SetDefaultFrontier(on bool) { defaultFrontierOff.Store(!on) }

// SetFrontier selects this instance's implementation of the Frontier
// entry points: true fuses the membership probe into the emit loop,
// false computes derive+Diff — bit-exact either way, the knob is the
// ablation baseline and test oracle.
func (in *Instance) SetFrontier(on bool) { in.frontier = ToggleOf(on) }

// FrontierEval reports the effective frontier setting: the value set
// with SetFrontier, else the process default, else on.
func (in *Instance) FrontierEval() bool { return in.frontier.Enabled(!defaultFrontierOff.Load()) }

// SetDefaultSharding sets the process-wide default for instances
// without an explicit SetSharding call.  On by default.
//
// Deprecated: prefer Options.Sharding per call; this setter remains as
// the fallback a ToggleDefault resolves to.
func SetDefaultSharding(on bool) { defaultShardingOff.Store(!on) }

// SetSharding enables or disables intra-rule data parallelism (the
// arena-range shard expansion of runTasks).  Sharded and unsharded
// evaluation produce identical states; only core utilization differs.
func (in *Instance) SetSharding(on bool) { in.sharding = ToggleOf(on) }

// Sharding reports the effective sharding setting: the value set with
// SetSharding, else the process default, else on.
func (in *Instance) Sharding() bool { return in.sharding.Enabled(!defaultShardingOff.Load()) }

// minShardSpan is the smallest arena range worth a shard of its own:
// below it, the per-task planning and context cost outweighs the
// parallelism.
const minShardSpan = 64

// expandShards splits tasks into arena-range shards of their driver
// relations until there is enough work for nw workers.  A task's split
// target is its semi-naive driver literal when it has one, else the
// literal the planner would enumerate first; tasks whose target is too
// small to split pass through unchanged.  The shard ranges partition
// the target's arena, so the shard outputs union to exactly the
// unsharded output.
func (in *Instance) expandShards(tasks []evalTask, pos State, nw int) []evalTask {
	out := make([]evalTask, 0, nw)
	for _, t := range tasks {
		lit, rel := in.shardTarget(t, pos)
		n := 0
		if lit >= 0 && rel != nil {
			n = rel.Len()
		}
		shards := nw
		if max := n / minShardSpan; shards > max {
			shards = max
		}
		if shards <= 1 {
			out = append(out, t)
			continue
		}
		span := (n + shards - 1) / shards
		for lo := 0; lo < n; lo += span {
			hi := lo + span
			if hi > n {
				hi = n
			}
			t2 := t
			t2.shardLit, t2.shardLo, t2.shardHi = lit, int32(lo), int32(hi)
			out = append(out, t2)
		}
	}
	return out
}

// shardTarget resolves the literal an intra-rule split partitions and
// the concrete relation it enumerates, mirroring evalRule's resolution
// of literal sources.
func (in *Instance) shardTarget(t evalTask, pos State) (int, *relation.Relation) {
	rp := t.rp
	if len(rp.positives) == 0 {
		return -1, nil
	}
	resolve := func(i int) *relation.Relation {
		switch {
		case t.pos[i] != nil:
			return t.pos[i]
		case !rp.positives[i].idb:
			return in.edbRel(rp.positives[i].pred)
		default:
			return pos[rp.positives[i].pred]
		}
	}
	if t.driver >= 0 {
		return t.driver, resolve(t.driver)
	}
	rels := make([]*relation.Relation, len(rp.positives))
	for i := range rels {
		rels[i] = resolve(i)
	}
	lit := firstJoinPick(rp, rels, in.CostPlanner())
	if lit < 0 {
		return -1, nil
	}
	return lit, rels[lit]
}
