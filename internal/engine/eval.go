package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// evalCtx carries the relation sources for one rule evaluation: pos[i]
// resolves the i-th positive literal, neg[i] the i-th negated literal.
// The relations are resolved once per rule evaluation — they cannot
// change mid-rule — so the join loop never goes through a predicate
// map.  headBuf and negBuf are scratch tuples reused across emissions
// so the hot path allocates only when a genuinely new tuple is stored.
// When cnt is non-nil the task is a counting pass: every emission bumps
// the head tuple's derivation count instead of inserting into out.
//
// cur, when non-nil, is the frontier filter: emissions already present
// in it are dropped at emit time (a read-only membership probe fused
// into the insert, see Relation.AddNotIn), so a frontier pass returns
// exactly the genuinely-new tuples without a derived state or a Diff.
// parts, when non-nil, replaces out with hash-partitioned buckets so
// per-worker outputs can be merged bucket-by-bucket and concatenated
// disjointly.
type evalCtx struct {
	pos     []*relation.Relation
	neg     []*relation.Relation
	out     *relation.Relation
	parts   []*relation.Relation
	cur     *relation.Relation
	cnt     *relation.Multiset
	usize   int
	headBuf relation.Tuple
	negBuf  relation.Tuple
	// filter, when non-nil, is a Bloom summary of cur fronting the exact
	// frontier probe on partitioned passes: a "definitely absent" answer
	// skips the cur map probe entirely (the tuple is surely new), a
	// "maybe present" answer falls through to the exact AddNotIn.
	// fprobes/fskips count the filter consultations and the probes it
	// saved, accumulated into the workerOut after the rule completes.
	filter  *relation.Filter
	fprobes int64
	fskips  int64
}

// evalTask is one unit of parallel work: a rule plan plus optional
// per-literal relation overrides (the semi-naive and delta variants).
// pos[i] overrides the relation read by the i-th positive literal,
// neg[j] the relation checked by the j-th negated literal.
//
// driver is the positive-literal index whose relation drives the task
// (the semi-naive delta, or the ApplyWithin filter); -1 when the task
// has no distinguished driver.  It is the preferred split target for
// intra-rule sharding.  A sharded task restricts the enumeration of
// literal shardLit to the arena range [shardLo, shardHi); shardHi == 0
// means the task is unsharded.
type evalTask struct {
	rp               *rulePlan
	pos              map[int]*relation.Relation
	neg              map[int]*relation.Relation
	driver           int
	shardLit         int
	shardLo, shardHi int32
}

// Apply computes Θ(S̄): the relations derived from the database and s by
// one parallel application of all rules.  Apply never reads its output
// while deriving, so it is the paper's simultaneous operator.
func (in *Instance) Apply(s State) State { return in.ApplySplit(s, s) }

// ApplySplit evaluates positive IDB literals against pos and negated
// IDB literals against neg.  With pos = neg it is Θ; with neg held
// fixed it is the monotone operator whose least fixpoint is the
// Gelfond–Lifschitz style Γ(neg) used by the well-founded alternating
// fixpoint.
//
// Rule plans are evaluated concurrently across a worker pool (see
// SetWorkers); each worker derives into a private state and the
// per-worker states are merged by set union at the end, so the result
// is identical to sequential evaluation.
func (in *Instance) ApplySplit(pos, neg State) State {
	return in.runTasks(in.fullTasks(), pos, neg, runOpts{shard: true})
}

// fullTasks builds one driverless task per rule plan — the task set of
// a full Θ application.
func (in *Instance) fullTasks() []evalTask {
	tasks := make([]evalTask, len(in.plans))
	for i, rp := range in.plans {
		tasks[i] = evalTask{rp: rp, driver: -1}
	}
	return tasks
}

// ApplyDelta computes the subset of Θ(cur) derivable by rule
// applications that use at least one tuple of delta in a positive IDB
// literal.  old must be the previous stage (cur = old ∪ delta).
// Negated literals are evaluated against cur.  Rules without positive
// IDB literals contribute nothing (their derivations never depend on
// the delta; see the package comment).
func (in *Instance) ApplyDelta(old, delta, cur State) State {
	return in.ApplyDeltaSplit(old, delta, cur, cur)
}

// ApplyDeltaSplit is ApplyDelta with negated IDB literals evaluated
// against an explicit state neg instead of cur.  Like ApplySplit, the
// (rule, variant) pairs run concurrently on the worker pool.
//
// It is the IDB-insert special case of the general delta machinery in
// delta.go: every IDB predicate drives positive literals with its delta
// relation, literals before the driver read the old relation, literals
// after it fall through to cur.
func (in *Instance) ApplyDeltaSplit(old, delta, cur, neg State) State {
	deltas := make(map[string]Delta, len(delta))
	for pred, d := range delta {
		deltas[pred] = Delta{PosDriver: d, Before: old[pred]}
	}
	return in.runTasks(in.deltaTasks(deltas), cur, neg, runOpts{shard: true})
}

// runOpts tunes one runTasks pass.
type runOpts struct {
	// frontier, when non-nil, drops every emission whose head tuple is
	// already present in frontier[headPred]: the pass returns exactly the
	// genuinely-new tuples, with no derived state and no Diff.
	frontier State
	// hints pre-sizes per-predicate outputs from the caller's expected
	// cardinality (typically last round's delta), and selects which
	// predicates get hash-partitioned per-worker outputs.
	hints map[string]int
	// shard allows intra-rule data parallelism: when tasks < workers,
	// tasks are split into arena-range shards of their driver relation so
	// every worker gets work even on programs with few rules.
	shard bool
	// nparts, when > 1, switches every predicate's per-worker output to
	// nparts owner buckets partitioned by TupleHash — the exchange unit
	// of partitioned evaluation (runTasksParts).  Unlike the hint-driven
	// partitioning above, it applies unconditionally.
	nparts int
	// workers caps the worker pool for this pass; 0 follows
	// in.Workers().  Partitioned passes split the instance pool across
	// the concurrently-evaluating partitions.
	workers int
	// filters, when non-nil, front the frontier probe per predicate with
	// a Bloom summary of the accumulated state (see evalCtx.filter).
	filters map[string]*relation.Filter
}

// workerOut is one worker's private derivation output.  Most predicates
// derive into out; predicates expected to produce large deltas (hints ≥
// partitionThreshold) derive into parts — nbuckets relations partitioned
// by head-tuple hash — so the cross-worker merge can run bucket-by-
// bucket in parallel and assemble the result by disjoint concatenation
// instead of one serial re-hashed union.
type workerOut struct {
	out     State
	parts   map[string][]*relation.Relation
	against State // frontier filter, nil when the pass keeps everything
	// filters and the probe counters serve partitioned exchange passes:
	// per-predicate Bloom prefilters over the accumulated state, and the
	// per-worker tallies of how often they were consulted / saved the
	// exact probe.
	filters map[string]*relation.Filter
	fprobes int64
	fskips  int64
}

// partitionThreshold is the expected per-predicate cardinality above
// which parallel frontier passes switch that predicate's per-worker
// output to hash-partitioned buckets.  Below it the partitions' fixed
// cost (nbuckets relations per worker) outweighs the parallel merge.
const partitionThreshold = 1024

// The scratch and relation freelists are process-global, not
// per-instance: a sync.Pool that ever sees a Put registers itself with
// the runtime and is visited by every later GC cycle, so per-instance
// pools make GC cost scale with the number of instances ever built — a
// real tax on workloads like demand-driven queries that construct
// thousands of short-lived instances.  Pooled entries carry no
// instance state (scratches are stripped of references on put,
// relations are Reset), so sharing them across instances is sound.
var scratchPool sync.Pool

// maxPooledArity bounds the per-arity freelist array; wider relations
// are simply allocated fresh.
const maxPooledArity = 16

var relPools [maxPooledArity + 1]sync.Pool

// getRel checks a relation of the given arity out of the per-arity
// freelist, falling back to a fresh allocation.  Pooled relations were
// cleared by Reset on the way in, so a recycled one is
// indistinguishable from a new one — except its table slots, arena
// capacity, and map buckets survive, which is the point.
func (in *Instance) getRel(arity int) *relation.Relation {
	if arity >= 0 && arity <= maxPooledArity {
		if r, _ := relPools[arity].Get().(*relation.Relation); r != nil {
			return r
		}
	}
	return relation.New(arity)
}

// putRel returns a provably-unreferenced relation to the freelist.
// Reset refuses frozen or snapshot-sharing storage, so anything a
// caller might still observe is dropped instead of recycled.
func (in *Instance) putRel(r *relation.Relation) {
	if r == nil || r.Arity() < 0 || r.Arity() > maxPooledArity || !r.Reset() {
		return
	}
	relPools[r.Arity()].Put(r)
}

// putState recycles every relation of a dead worker state.
func (in *Instance) putState(s State) {
	for _, r := range s {
		in.putRel(r)
	}
}

// newWorkerState is NewState backed by the instance freelists — the
// per-round worker outputs come from and return to the pools, so
// steady-state rounds reuse last round's storage.
func (in *Instance) newWorkerState() State {
	s := make(State, len(in.idb))
	for pred := range in.idb {
		s[pred] = in.getRel(in.arities[pred])
	}
	return s
}

// newWorkerOut builds a worker's output for the given pass shape.
// nbuckets ≤ 1 disables partitioning (the sequential path and legacy
// union merges).
func (in *Instance) newWorkerOut(opts runOpts, nbuckets int) *workerOut {
	wo := &workerOut{out: in.newWorkerState(), against: opts.frontier, filters: opts.filters}
	if opts.nparts > 0 {
		// Partition-exchange pass: every predicate derives into nparts
		// owner buckets, regardless of expected cardinality — the bucket
		// boundary is the exchange unit, not a merge optimization.
		wo.parts = make(map[string][]*relation.Relation, len(wo.out))
		for pred, r := range wo.out {
			parts := make([]*relation.Relation, opts.nparts)
			for b := range parts {
				parts[b] = in.getRel(r.Arity())
				if n := opts.hints[pred]; n > 0 {
					parts[b].ReserveHint(n / opts.nparts)
				}
			}
			wo.parts[pred] = parts
		}
		return wo
	}
	for pred, n := range opts.hints {
		if r := wo.out[pred]; r != nil {
			if nbuckets > 1 && n >= partitionThreshold {
				parts := make([]*relation.Relation, nbuckets)
				for b := range parts {
					parts[b] = in.getRel(r.Arity())
					parts[b].ReserveHint(n / nbuckets)
				}
				if wo.parts == nil {
					wo.parts = make(map[string][]*relation.Relation)
				}
				wo.parts[pred] = parts
			} else {
				r.ReserveHint(n)
			}
		}
	}
	return wo
}

// runTasks evaluates every task against (pos, neg) and returns the
// union of their derivations (minus opts.frontier, when set).  With
// more than one task and more than one configured worker, tasks are
// distributed over a pool of goroutines, each deriving into a private
// output; because the final merge is a union of sets (or a disjoint
// concatenation of hash partitions), the result is bit-exact regardless
// of worker count or scheduling order.  Input states are only read:
// lazy index construction inside Relation is internally synchronized.
//
// When opts.shard is set and there are fewer tasks than workers, tasks
// are first split into arena-range shards of their driver relation (see
// expandShards), so even a two-rule program keeps every core busy.
func (in *Instance) runTasks(tasks []evalTask, pos, neg State, opts runOpts) State {
	out, _ := in.runTasksStats(tasks, pos, neg, opts)
	return out
}

// runTasksStats is runTasks returning the pass's emit-path prefilter
// telemetry alongside the derived state (zero when opts.filters is
// nil — the exact-probe-only path never consults a filter).
func (in *Instance) runTasksStats(tasks []evalTask, pos, neg State, opts runOpts) (State, FilterStats) {
	nw := in.Workers()
	if opts.shard && nw > len(tasks) && len(tasks) > 0 && in.Sharding() {
		tasks = in.expandShards(tasks, pos, nw)
	}
	if nw > len(tasks) {
		nw = len(tasks)
	}
	if nw <= 1 {
		wo := in.newWorkerOut(opts, 1)
		for _, t := range tasks {
			in.evalRule(t, pos, neg, wo, nil)
		}
		return wo.out, FilterStats{Probes: wo.fprobes, Skips: wo.fskips}
	}

	wos := make([]*workerOut, nw)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func(w int) {
			defer wg.Done()
			wo := in.newWorkerOut(opts, nw)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					break
				}
				in.evalRule(tasks[i], pos, neg, wo, nil)
			}
			wos[w] = wo
		}(w)
	}
	wg.Wait()
	var st FilterStats
	for _, wo := range wos {
		st.Probes += wo.fprobes
		st.Skips += wo.fskips
	}
	return in.mergeWorkerOuts(wos, nw), st
}

// mergeWorkerOuts combines per-worker outputs: plain predicates by set
// union into the first worker's state, partitioned predicates by a
// parallel per-bucket union followed by disjoint concatenation (buckets
// are hash partitions, so tuples of different buckets can never
// collide).  Merged-away worker relations — every output except the
// returned state's own relations — go back to the instance freelists;
// tuples themselves are shared into the survivor, never the storage.
func (in *Instance) mergeWorkerOuts(wos []*workerOut, nbuckets int) State {
	out := wos[0].out
	for _, wo := range wos[1:] {
		out.UnionWith(wo.out)
		in.putState(wo.out)
	}
	for pred, first := range wos[0].parts {
		merged := make([]*relation.Relation, nbuckets)
		var wg sync.WaitGroup
		wg.Add(nbuckets)
		for b := 0; b < nbuckets; b++ {
			go func(b int) {
				defer wg.Done()
				m := first[b]
				for _, wo := range wos[1:] {
					m.UnionWith(wo.parts[pred][b])
					in.putRel(wo.parts[pred][b])
				}
				merged[b] = m
			}(b)
		}
		wg.Wait()
		// Disjoint concatenation into a pooled relation (the same merge
		// relation.ConcatDisjoint performs, minus its fresh allocation);
		// the consumed buckets go straight back to the freelist.
		total := 0
		for _, m := range merged {
			total += m.Len()
		}
		whole := in.getRel(in.arities[pred])
		whole.ReserveHint(total)
		for _, m := range merged {
			whole.AppendDisjoint(m)
			in.putRel(m)
		}
		// The non-partitioned per-worker outputs for this predicate are
		// empty by construction, but union them anyway for safety.
		whole.UnionWith(out[pred])
		in.putRel(out[pred])
		out[pred] = whole
	}
	return out
}

// runTasksCount evaluates every task in counting mode: instead of a
// derived set it returns, per head predicate, the multiset of head
// tuples with the number of distinct rule-body derivations that emitted
// each.  Workers fill private multisets merged by summation, so counts
// are exact regardless of scheduling.
func (in *Instance) runTasksCount(tasks []evalTask, pos, neg State) map[string]*relation.Multiset {
	nw := in.Workers()
	if nw > len(tasks) {
		nw = len(tasks)
	}
	if nw <= 1 {
		cnt := make(map[string]*relation.Multiset)
		for _, t := range tasks {
			in.evalRule(t, pos, neg, &workerOut{}, cnt)
		}
		return cnt
	}

	cnts := make([]map[string]*relation.Multiset, nw)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func(w int) {
			defer wg.Done()
			cnt := make(map[string]*relation.Multiset)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					break
				}
				in.evalRule(tasks[i], pos, neg, &workerOut{}, cnt)
			}
			cnts[w] = cnt
		}(w)
	}
	wg.Wait()

	cnt := cnts[0]
	for _, c := range cnts[1:] {
		for pred, ms := range c {
			if have := cnt[pred]; have != nil {
				have.MergeFrom(ms)
			} else {
				cnt[pred] = ms
			}
		}
	}
	return cnt
}

// defaultWorkers is the process-wide worker-pool default applied to
// instances that never called SetWorkers; 0 means GOMAXPROCS.  It lets
// drivers like cmd/bench pin the parallelism of instances they do not
// construct themselves.
var defaultWorkers atomic.Int32

// SetDefaultWorkers sets the process-wide default worker-pool size for
// instances without an explicit SetWorkers; n ≤ 0 restores GOMAXPROCS.
//
// Deprecated: process-wide defaults compose badly across concurrent
// callers.  Prefer the per-call Options API (Options.Workers, threaded
// through core.EvalOpts / incr.NewWith / server.Config / repro.Options);
// this setter remains as the fallback the zero Options resolve to.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int32(n))
}

// Workers returns the effective worker-pool size: the value set with
// SetWorkers, else the process default, else runtime.GOMAXPROCS(0).
func (in *Instance) Workers() int {
	if in.nworkers > 0 {
		return in.nworkers
	}
	if d := defaultWorkers.Load(); d > 0 {
		return int(d)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers fixes the worker-pool size used by ApplySplit and
// ApplyDeltaSplit; n ≤ 0 restores the default (GOMAXPROCS).  Parallel
// and sequential evaluation produce identical states.
func (in *Instance) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	in.nworkers = n
}

// IsFixpoint reports whether Θ(S̄) = S̄, i.e. whether s is a fixpoint of
// (π, D) in the paper's sense.
func (in *Instance) IsFixpoint(s State) bool {
	return in.Apply(s).Equal(s)
}

// evalScratch is the reusable per-rule evaluation state: the context
// struct, its scratch tuples and source slices, and the variable
// binding array.  evalRule checks one out of the instance's pool per
// call and returns it cleared, so the steady state of a fixpoint loop
// allocates nothing here regardless of round count.
type evalScratch struct {
	ctx     evalCtx
	binding []int
}

// growSlice resizes a scratch slice to n, reallocating only past the
// high-water mark of previous rules.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// getScratch checks a cleared evalScratch out of the pool, sized for
// the given rule plan.
func (in *Instance) getScratch(rp *rulePlan, maxNeg int) *evalScratch {
	sc, _ := scratchPool.Get().(*evalScratch)
	if sc == nil {
		sc = &evalScratch{}
	}
	sc.ctx.headBuf = growSlice(sc.ctx.headBuf, len(rp.headSlots))
	sc.ctx.negBuf = growSlice(sc.ctx.negBuf, maxNeg)
	sc.ctx.pos = growSlice(sc.ctx.pos, len(rp.positives))
	sc.ctx.neg = growSlice(sc.ctx.neg, len(rp.negatives))
	sc.binding = growSlice(sc.binding, rp.nvars)
	for i := range sc.binding {
		sc.binding[i] = -1
	}
	return sc
}

// putScratch returns a scratch to the pool, dropping every relation
// reference so pooled entries never pin last round's states.
func (in *Instance) putScratch(sc *evalScratch) {
	ctx := &sc.ctx
	ctx.out, ctx.cur, ctx.parts, ctx.cnt, ctx.filter = nil, nil, nil, nil, nil
	for i := range ctx.pos {
		ctx.pos[i] = nil
	}
	for i := range ctx.neg {
		ctx.neg[i] = nil
	}
	ctx.fprobes, ctx.fskips = 0, 0
	scratchPool.Put(sc)
}

// evalRule evaluates one task's rule plan.  posState resolves positive
// IDB literals, negState negated ones; the task's override maps replace
// the relation of specific literal indices (the semi-naive and delta
// variants).  With cnt non-nil the rule runs in counting mode: every
// derivation bumps the head tuple's count in cnt[headPred] instead of
// inserting into the worker output.
func (in *Instance) evalRule(task evalTask, posState, negState State, wo *workerOut, cnt map[string]*relation.Multiset) {
	rp := task.rp
	maxNeg := 0
	for _, np := range rp.negatives {
		if len(np.slots) > maxNeg {
			maxNeg = len(np.slots)
		}
	}
	sc := in.getScratch(rp, maxNeg)
	ctx := &sc.ctx
	ctx.usize = in.db.Universe().Size()
	ctx.out = wo.out[rp.headPred]
	if wo.parts != nil {
		ctx.parts = wo.parts[rp.headPred]
	}
	if wo.against != nil {
		ctx.cur = wo.against[rp.headPred]
	}
	if wo.filters != nil {
		ctx.filter = wo.filters[rp.headPred]
	}
	if cnt != nil {
		ms := cnt[rp.headPred]
		if ms == nil {
			ms = relation.NewMultiset(len(rp.headSlots))
			cnt[rp.headPred] = ms
		}
		ctx.cnt = ms
	}
	for i, lp := range rp.positives {
		switch {
		case task.pos[i] != nil:
			ctx.pos[i] = task.pos[i]
		case !lp.idb:
			ctx.pos[i] = in.edbRel(lp.pred)
		default:
			ctx.pos[i] = posState[lp.pred]
		}
	}
	for i, np := range rp.negatives {
		switch {
		case task.neg[i] != nil:
			ctx.neg[i] = task.neg[i]
		case !np.idb:
			ctx.neg[i] = in.edbRel(np.pred)
		default:
			ctx.neg[i] = negState[np.pred]
		}
	}
	// Plan against the resolved relations: the planner sees the actual
	// sizes of this task's sources (deltas included), so join orders are
	// re-costed every round.
	shardLit := -1
	if task.shardHi > 0 {
		shardLit = task.shardLit
	}
	ep := buildExec(rp, ctx.pos, in.CostPlanner(), shardLit, task.shardLo, task.shardHi)
	in.run(rp, ctx, ep, 0, sc.binding)
	wo.fprobes += ctx.fprobes
	wo.fskips += ctx.fskips
	in.putScratch(sc)
}

// slotValue resolves a slot under the current binding; -1 means the
// slot holds an unbound variable.
func slotValue(s slot, binding []int) int {
	if s.isConst {
		return s.val
	}
	return binding[s.val]
}

// run executes the plan from step si under the given partial binding,
// emitting head tuples into ctx.out.
func (in *Instance) run(rp *rulePlan, ctx *evalCtx, ep *execPlan, si int, binding []int) {
	if si == len(ep.steps) {
		// Fill the scratch head buffer; AddNotIn (and Multiset.Bump for a
		// new tuple) copies it only when actually stored.  ctx.cur is the
		// frontier filter: emissions already in the accumulated state are
		// dropped here, by one read-only membership probe, instead of
		// surviving into a derived state only to be removed by a Diff.
		t := ctx.headBuf
		for i, s := range rp.headSlots {
			t[i] = slotValue(s, binding)
		}
		switch {
		case ctx.cnt != nil:
			ctx.cnt.Bump(t, 1)
		case ctx.parts != nil:
			// One emit-time hash serves owner routing, the Bloom prefilter,
			// and both membership probes (bucket dedup + accumulated state).
			h := relation.TupleHash(t)
			b := ctx.parts[h%uint64(len(ctx.parts))]
			if ctx.filter != nil {
				// "Definitely absent" proves the tuple is not in the
				// accumulated state, so only the bucket's own dedup is
				// needed; "maybe present" takes the exact probe, which
				// drops duplicates exactly.
				ctx.fprobes++
				if !ctx.filter.MayContainHash(h) {
					ctx.fskips++
					b.AddHash(t, h)
				} else {
					b.AddNotInHash(t, h, ctx.cur)
				}
			} else {
				b.AddNotInHash(t, h, ctx.cur)
			}
		case ctx.filter != nil:
			// Unpartitioned frontier pass fronted by the accumulated-state
			// Bloom summary (Options.FrontierFilter): same protocol as the
			// exchange path, minus the owner routing.
			h := relation.TupleHash(t)
			ctx.fprobes++
			if !ctx.filter.MayContainHash(h) {
				ctx.fskips++
				ctx.out.AddHash(t, h)
			} else {
				ctx.out.AddNotInHash(t, h, ctx.cur)
			}
		default:
			ctx.out.AddNotIn(t, ctx.cur)
		}
		return
	}
	st := ep.steps[si]
	switch st.kind {
	case stepJoin:
		in.runJoin(rp, ctx, ep, si, binding)

	case stepExtend:
		for v := 0; v < ctx.usize; v++ {
			binding[st.idx] = v
			in.run(rp, ctx, ep, si+1, binding)
		}
		binding[st.idx] = -1

	case stepBindEq:
		c := rp.cmps[st.idx]
		// Exactly one side is unbound by plan construction.
		lv, rv := slotValue(c.left, binding), slotValue(c.right, binding)
		var target slot
		var val int
		if lv < 0 {
			target, val = c.left, rv
		} else {
			target, val = c.right, lv
		}
		binding[target.val] = val
		in.run(rp, ctx, ep, si+1, binding)
		binding[target.val] = -1

	case stepCmp:
		c := rp.cmps[st.idx]
		eq := slotValue(c.left, binding) == slotValue(c.right, binding)
		if eq != c.neq {
			in.run(rp, ctx, ep, si+1, binding)
		}

	case stepNeg:
		np := rp.negatives[st.idx]
		// The scratch buffer is fully consumed by Has before any
		// deeper step reuses it.
		t := ctx.negBuf[:len(np.slots)]
		for i, s := range np.slots {
			t[i] = slotValue(s, binding)
		}
		if !ctx.neg[st.idx].Has(t) {
			in.run(rp, ctx, ep, si+1, binding)
		}
	}
}

// runJoin enumerates the candidate tuples of a positive literal —
// through one primary-key probe when every column is bound, through the
// step's index probe when some are, by arena scan otherwise — and
// extends the binding per match.  The per-tuple work is the step's
// compiled micro-op array; together with the probe this loop performs
// no allocation (see BenchmarkJoinAllocs).
func (in *Instance) runJoin(rp *rulePlan, ctx *evalCtx, ep *execPlan, si int, binding []int) {
	je := ep.steps[si].join
	rel := ctx.pos[je.lit]
	if rel.Empty() {
		return
	}

	if len(je.probeCols) > 0 {
		for i, s := range je.probeSrc {
			je.probeVals[i] = slotValue(s, binding)
		}
		if je.fullKey {
			// probeCols is 0..arity-1, so probeVals is the tuple itself.
			off := rel.OffsetOf(relation.Tuple(je.probeVals))
			if off >= 0 && (je.shardHi == 0 || (off >= je.shardLo && off < je.shardHi)) {
				in.matchTuple(rp, ctx, ep, si, binding, je, rel.At(off))
			}
			return
		}
		var offs []int32
		if len(je.probeCols) == 1 {
			offs = rel.Lookup(je.probeCols[0], je.probeVals[0])
		} else {
			offs = rel.LookupCols(je.probeCols, je.probeVals)
		}
		if je.shardHi > 0 {
			offs = relation.OffsetsInRange(offs, je.shardLo, je.shardHi)
		}
		for _, off := range offs {
			in.matchTuple(rp, ctx, ep, si, binding, je, rel.At(off))
		}
		return
	}
	lo, hi := int32(0), int32(rel.Len())
	if je.shardHi > 0 {
		lo, hi = je.shardLo, je.shardHi
	}
	for off := lo; off < hi; off++ {
		in.matchTuple(rp, ctx, ep, si, binding, je, rel.At(off))
	}
}

// matchTuple runs a join step's micro-ops against one candidate tuple,
// recursing into the rest of the plan on success.  bindVars lists
// exactly the variables the ops may bind — all unbound on entry — so
// resetting them unconditionally afterwards is correct even when a
// check fails midway.
func (in *Instance) matchTuple(rp *rulePlan, ctx *evalCtx, ep *execPlan, si int, binding []int, je *joinExec, t relation.Tuple) {
	ok := true
	for _, op := range je.ops {
		v := t[op.col]
		switch op.kind {
		case opBind:
			binding[op.arg] = v
		case opCheckVar:
			if binding[op.arg] != v {
				ok = false
			}
		case opCheckConst:
			if v != int(op.arg) {
				ok = false
			}
		}
		if !ok {
			break
		}
	}
	if ok {
		in.run(rp, ctx, ep, si+1, binding)
	}
	for _, v := range je.bindVars {
		binding[v] = -1
	}
}
