package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/incr"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/semantics"
	"repro/internal/server"
)

// Counts of the traced run's in-process calls.  They bound the work,
// not the time, so every traced run does the same calls.
const (
	traceQueries  = 300 // query-stream length for the per-query layers
	traceUpdates  = 100 // update-stream length for the per-update layers
	traceRepeats  = 5   // repetitions of the whole-relation measurements
	traceMagicMax = 60  // magic queries, which can each run a fixpoint
)

// moves names, per per-layer metric, the end-to-end metrics it should
// move and on which workloads.
var moves = map[string]string{
	"relation.probe_ns":            "update_* on tc-read and winmove-durable; query_* on tc-magic",
	"relation.insert_ns":           "setup_s on all workloads",
	"relation.lookup_ns":           "query_* on tc-read",
	"engine.theta_ns_per_tuple":    "setup_s; update_* on tc-read; query_* on tc-magic",
	"engine.round_ms":              "update_* on winmove-durable; query_* on tc-magic",
	"semantics.fixpoint_ms":        "setup_s",
	"semantics.rounds":             "setup_s",
	"incr.update_p50_ms":           "update_* on all workloads",
	"incr.update_tail_ms":          "update_* on all workloads",
	"incr.replay_skip_ratio":       "update_* on winmove-durable",
	"incr.idb_delta_per_update":    "update_* on winmove-durable",
	"incr.snapshot_us":             "update_* on all workloads",
	"magic.rewrite_us":             "first-query latency only",
	"magic.query_ms":               "query_* on tc-magic; not tc-read",
	"magic.derived_per_answer":     "query_* on tc-magic; not tc-read",
	"server.handler_query_us":      "query_* on tc-read",
	"server.json_encode_us":        "query_* on tc-read",
	"server.enqueue_update_ms":     "update_* on all workloads",
	"server.mean_batch":            "ops_per_s on winmove-durable",
	"durable.append_sync_us":       "update_p50_ms on winmove-durable; bypassed on tc-*",
	"durable.append_nosync_us":     "update_p50_ms on winmove-durable; bypassed on tc-*",
	"durable.checkpoint_ms":        "update_tail_ms and recovery_s on winmove-durable",
	"durable.checkpoint_bytes":     "update_tail_ms and recovery_s on winmove-durable",
	"durable.restore_ms":           "recovery_s on winmove-durable",
	"durable.wal_bytes_per_update": "update_* on winmove-durable",
	"replica.ship_us":              "follower_lag_* on winmove-durable",
	"replica.apply_ms":             "follower_lag_* on winmove-durable",
	"split.http_client_us":         "query_p50_ms: socket and HTTP client share",
	"split.handler_us":             "query_p50_ms: handler share beyond lookup and encoding",
	"split.json_encode_us":         "query_p50_ms: JSON encoding share",
	"split.lookup_us":              "query_p50_ms: relation lookup share",
	"trace.overhead_query_p50_ms":  "traced minus untraced query_p50_ms",
	"trace.overhead_update_p50_ms": "traced minus untraced update_p50_ms",
}

// traced is the state of one traced run.
type traced struct {
	cfg config
	in  *inputs
	rep *report
	tr  *tracer
	db  *relation.Database // the initial facts
	qs  []int              // the query stream's bound vertices
	us  []op               // the update stream
}

// runTraced measures the per-layer metrics on the workload's own
// data.  It first drives the daemons untraced and then traced for a
// quarter of the run each, which gives the tracing overhead and the
// daemon's group-commit batch size; then it calls each layer's public
// functions in process, each call (or batch of calls, for the
// nanosecond-scale ones) under a span.
func runTraced(cfg config, in *inputs, rep *report, tr *tracer) error {
	t := &traced{cfg: cfg, in: in, rep: rep, tr: tr}
	d, err := parser.FactsFile(in.factsFile)
	if err != nil {
		return err
	}
	t.db = d
	m := newMix(cfg.w, cfg.seed, 0)
	for len(t.qs) < traceQueries {
		if isUpdate, v := m.next(); !isUpdate {
			t.qs = append(t.qs, v)
		}
	}
	g := newOwner(cfg.w, cfg.seed, 0, 1, in.initial, in.order)
	for len(t.us) < traceUpdates {
		t.us = append(t.us, g.next())
	}

	if err := t.served(); err != nil {
		return err
	}
	steps := []func() error{t.relationLayer, t.engineLayer, t.semanticsLayer, t.incrLayer,
		t.magicLayer, t.serverLayer, t.durableLayers, t.querySplit}
	for _, f := range steps {
		if err := f(); err != nil {
			return err
		}
	}
	rep.detail["layers"] = selfTimes(tr.all())
	return nil
}

func (t *traced) add(name string, v float64, unit, how string) {
	t.rep.add(name, v, unit, how+"; moves "+moves[name])
}

// served drives the daemons untraced, then traced, and scrapes the
// leader's mean group-commit batch after a closed-loop stretch.
func (t *traced) served() error {
	w := t.cfg.w
	c, _, err := startCluster(t.cfg.serve, w, t.in.progFile, t.in.factsFile, filepath.Join(t.in.dir, "served"))
	if err != nil {
		return err
	}
	defer c.stop()
	ld := newLoad(w, t.cfg.seed, t.in)
	quarter := secs(float64(t.cfg.seconds) / 4)
	warm := ld.run(c, phase{open: true, dur: time.Second, rate: w.rate})
	plain := ld.run(c, phase{open: true, dur: quarter, rate: w.rate})
	withSpans := ld.run(c, phase{open: true, dur: quarter, rate: w.rate, tr: t.tr})
	closed := ld.run(c, phase{dur: quarter})
	for _, o := range []*phaseOut{warm, plain, withSpans, closed} {
		t.rep.attempted += o.attempted
		t.rep.failed += o.failed
		for _, e := range o.errs {
			t.rep.problem("request failed: %s", e)
		}
	}
	resp, err := probeClient.Get(c.leader.url + "/v1/metrics")
	if err != nil {
		return err
	}
	var met server.MetricsResponse
	err = json.NewDecoder(resp.Body).Decode(&met)
	resp.Body.Close()
	if err != nil {
		return err
	}
	pq, pu := summarize(plain.queryMs), summarize(plain.updateMs)
	tq, tu := summarize(withSpans.queryMs), summarize(withSpans.updateMs)
	t.add("server.mean_batch", met.Queue.MeanBatch, "count",
		fmt.Sprintf("/v1/metrics after a closed loop of %d clients", len(ld.clients)))
	t.add("trace.overhead_query_p50_ms", tq.P50-pq.P50, "ms", fmt.Sprintf("%.4f traced vs %.4f untraced", tq.P50, pq.P50))
	t.add("trace.overhead_update_p50_ms", tu.P50-pu.P50, "ms", fmt.Sprintf("%.4f traced vs %.4f untraced", tu.P50, pu.P50))
	return nil
}

// timed runs f n times, each call under its own span named name, and
// returns the durations in the given unit.
func (t *traced) timed(name string, n int, unit time.Duration, f func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		sp := t.tr.begin(name, nil)
		err := f(i)
		d := t.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, float64(d)/float64(unit))
	}
	return out, nil
}

// batched times ops calls of one function under a single span, reps
// times, and returns the median ns per call.
func (t *traced) batched(name string, reps, ops int, f func()) float64 {
	var per []float64
	for r := 0; r < reps; r++ {
		sp := t.tr.begin(name, nil)
		f()
		per = append(per, float64(t.tr.endOps(sp, ops))/float64(ops))
	}
	return median(per)
}

// fixpoint evaluates the workload from scratch.
func (t *traced) fixpoint() (*core.EvalResult, error) {
	return core.Eval(t.in.prog, t.db, t.in.sem, semantics.SemiNaive)
}

var sink int

func (t *traced) relationLayer() error {
	res, err := t.fixpoint()
	if err != nil {
		return err
	}
	rel := res.State[t.cfg.w.queryPred]
	tuples := rel.Tuples()
	ar := rel.Arity()
	t.add("relation.insert_ns", t.batched("relation.Add", traceRepeats, len(tuples), func() {
		r := relation.New(ar)
		for _, tu := range tuples {
			r.Add(tu)
		}
		sink += r.Len()
	}), "ns", fmt.Sprintf("Add of the %d-tuple %s relation", len(tuples), t.cfg.w.queryPred))

	// Half hits, half misses: the misses shift the first column by
	// one past the universe, so they can never match.
	univ := res.Universe.Size()
	probes := make([]relation.Tuple, 0, 2*len(tuples))
	for _, tu := range tuples {
		miss := append(relation.Tuple(nil), tu...)
		miss[0] += univ
		probes = append(probes, tu, miss)
	}
	t.add("relation.probe_ns", t.batched("relation.Has", traceRepeats, len(probes), func() {
		for _, p := range probes {
			if rel.Has(p) {
				sink++
			}
		}
	}), "ns", fmt.Sprintf("Has over %d probes, half hits", len(probes)))

	ids := make([]int, len(t.qs))
	for i, v := range t.qs {
		ids[i], _ = res.Universe.Lookup(vname(v))
	}
	rel.Lookup(0, ids[0]) // build the lazy index outside the timing
	t.add("relation.lookup_ns", t.batched("relation.Lookup", traceRepeats, len(ids), func() {
		for _, id := range ids {
			for _, off := range rel.Lookup(0, id) {
				sink += len(rel.At(off))
			}
		}
	}), "ns", fmt.Sprintf("Lookup+At on the %d-query stream", len(ids)))
	return nil
}

func (t *traced) engineLayer() error {
	in, err := engine.New(t.in.prog, t.db.Clone())
	if err != nil {
		return err
	}
	var stages []engine.State
	res := semantics.InflationaryLog(in, semantics.SemiNaive, func(s engine.State) { stages = append(stages, s) })
	st := res.State
	outTuples := 0
	per, err := t.timed("engine.Apply", traceRepeats, time.Nanosecond, func(int) error {
		outTuples = in.Apply(st).Total()
		return nil
	})
	if err != nil {
		return err
	}
	t.add("engine.theta_ns_per_tuple", median(per)/float64(max(outTuples, 1)), "ns",
		fmt.Sprintf("one Apply over the %d-tuple inflationary fixpoint, per output tuple", st.Total()))

	// The stage with the largest delta; before the first stage is ∅.
	prev := func(j int) engine.State {
		if j == 0 {
			return in.NewState()
		}
		return stages[j-1]
	}
	j, best := 0, -1
	for i := range stages {
		if d := stages[i].Total() - prev(i).Total(); d > best {
			j, best = i, d
		}
	}
	old, cur := prev(j), stages[j]
	delta := cur.Diff(old)
	per, err = t.timed("engine.round", traceRepeats, time.Millisecond, func(int) error {
		sink += in.ApplyDeltaSplitFrontier(old, delta, cur, cur).Total()
		return nil
	})
	if err != nil {
		return err
	}
	t.add("engine.round_ms", median(per), "ms", fmt.Sprintf("semi-naive round from stage %d of %d (delta %d tuples)", j+1, len(stages), best))
	return nil
}

func (t *traced) semanticsLayer() error {
	var rounds int
	per, err := t.timed("semantics.fixpoint", traceRepeats, time.Millisecond, func(int) error {
		res, err := t.fixpoint()
		if err == nil {
			rounds = res.Stats.Rounds
		}
		return err
	})
	if err != nil {
		return err
	}
	t.add("semantics.fixpoint_ms", median(per), "ms", fmt.Sprintf("core.Eval under %s", t.in.sem))
	t.add("semantics.rounds", float64(rounds), "count", fmt.Sprintf("rounds under %s", t.in.sem))
	return nil
}

func (t *traced) incrLayer() error {
	m, err := incr.New(t.in.prog, t.db, t.in.sem)
	if err != nil {
		return err
	}
	var skipped, replayed, delta int
	strategies := map[string]int{}
	upd, err := t.timed("incr.Update", len(t.us), time.Millisecond, func(i int) error {
		st, err := m.Update(facts(t.us[i].add), facts(t.us[i].drop))
		if err != nil {
			return err
		}
		strategies[st.Strategy]++
		skipped += st.SkippedStages
		replayed += st.ReplayedStages
		delta += st.InsertedIDB + st.DeletedIDB
		return nil
	})
	if err != nil {
		return err
	}
	snap, err := t.timed("incr.Snapshot", len(t.us), time.Microsecond, func(int) error {
		sink += int(m.Snapshot().Gen)
		return nil
	})
	if err != nil {
		return err
	}
	u := summarize(upd)
	label := fmt.Sprintf("Maintainer.Update on %d updates, strategies %v", u.N, strategies)
	t.add("incr.update_p50_ms", u.P50, "ms", label)
	t.add("incr.update_tail_ms", u.Tail, "ms", fmt.Sprintf("p%g of %d", u.TailPct, u.N))
	ratio := 0.0
	if skipped+replayed > 0 {
		ratio = float64(skipped) / float64(skipped+replayed)
	}
	t.add("incr.replay_skip_ratio", ratio, "ratio", fmt.Sprintf("%d skipped, %d replayed stages", skipped, replayed))
	t.add("incr.idb_delta_per_update", float64(delta)/float64(len(t.us)), "count", "IDB tuples inserted plus deleted")
	t.add("incr.snapshot_us", summarize(snap).P50, "us", "Maintainer.Snapshot after the stream")
	return nil
}

// magicProgram is the program the magic layer is measured with: the
// workload's own when magic sets can rewrite it, otherwise (π1 is not
// stratifiable) the tc program over the same graph.
func (t *traced) magicProgram() (prog *ast.Program, pred string, stratified bool, note string, err error) {
	prog, pred = t.in.prog, t.cfg.w.queryPred
	if strat, ok := core.QueryStrategy(t.in.sem, prog.Classify()); ok {
		return prog, pred, strat, "the workload's program", nil
	}
	prog, err = parser.Program(tcProgram)
	return prog, "s", true, "the tc program on this graph (magic sets cannot rewrite π1)", err
}

func (t *traced) magicLayer() error {
	prog, pred, strat, note, err := t.magicProgram()
	if err != nil {
		return err
	}
	arities, err := prog.Validate()
	if err != nil {
		return err
	}
	pattern := make([]bool, arities[pred])
	pattern[0] = true
	var rw *magic.Rewritten
	per, err := t.timed("magic.Rewrite", traceRepeats, time.Microsecond, func(int) error {
		rw, err = magic.Rewrite(prog, pred, pattern)
		return err
	})
	if err != nil {
		return err
	}
	t.add("magic.rewrite_us", median(per), "us", "Rewrite of "+note)

	m, err := incr.New(t.in.prog, t.db, t.in.sem)
	if err != nil {
		return err
	}
	snap := m.Snapshot()
	n := min(len(t.qs), traceMagicMax)
	derived, answers := 0, 0
	qms, err := t.timed("magic.query", n, time.Millisecond, func(i int) error {
		work := relation.NewDatabaseOn(snap.Universe.Clone())
		work.Set("E", snap.Rels["E"])
		q := magic.Query{Pred: pred, Args: make([]magic.Arg, len(pattern))}
		q.Args[0] = magic.Bound(vname(t.qs[i]))
		res, err := semantics.QueryRewritten(rw, work, q, strat, semantics.SemiNaive)
		if err != nil {
			return err
		}
		derived += res.Stats.Tuples
		answers += res.Tuples.Len()
		return nil
	})
	if err != nil {
		return err
	}
	t.add("magic.query_ms", summarize(qms).P50, "ms", fmt.Sprintf("QueryRewritten on %d queries of %s", n, note))
	t.add("magic.derived_per_answer", float64(derived)/float64(max(answers, 1)), "ratio",
		fmt.Sprintf("%d derived for %d answers", derived, answers))
	return nil
}

// inProcess builds a server like the workload's leader, in memory.
func (t *traced) inProcess(dataDir string) (*server.Server, error) {
	cfg := server.Config{MagicDefault: t.cfg.w.magic}
	if dataDir != "" {
		cfg.DataDir, cfg.Fsync = dataDir, durable.FsyncAlways
	}
	return server.NewWith(t.in.prog, t.db, t.in.sem, cfg)
}

func (t *traced) serverLayer() error {
	srv, err := t.inProcess("")
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	bodies := make([][]byte, len(t.qs))
	for i, v := range t.qs {
		if bodies[i], err = json.Marshal(queryRequest(t.cfg.w, v)); err != nil {
			return err
		}
	}
	// Requests are built before, and answers decoded after, the timed
	// ServeHTTP calls.
	reqs := make([]*http.Request, len(bodies))
	recs := make([]*httptest.ResponseRecorder, len(bodies))
	for i, b := range bodies {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(b))
		recs[i] = httptest.NewRecorder()
	}
	// The rewrite cache and lazy indexes fill outside the timing.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(bodies[0])))
	hq, err := t.timed("server.handler", len(bodies), time.Microsecond, func(i int) error {
		h.ServeHTTP(recs[i], reqs[i])
		return nil
	})
	if err != nil {
		return err
	}
	resps := make([]server.QueryResponse, len(recs))
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			return fmt.Errorf("query %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resps[i]); err != nil {
			return err
		}
	}
	enc, err := t.timed("server.json_encode", len(resps), time.Microsecond, func(i int) error {
		return json.NewEncoder(io.Discard).Encode(resps[i])
	})
	if err != nil {
		return err
	}
	t.add("server.handler_query_us", summarize(hq).P50, "us", "Handler().ServeHTTP with a recorder on the query stream")
	t.add("server.json_encode_us", summarize(enc).P50, "us", "QueryResponse encoding of the same answers")
	t.rep.detail["split_inputs_us"] = map[string]float64{"handler": summarize(hq).P50, "json": summarize(enc).P50}

	dir := ""
	if t.cfg.w.durable {
		dir = filepath.Join(t.in.dir, "enqueue")
	}
	wsrv, err := t.inProcess(dir)
	if err != nil {
		return err
	}
	defer wsrv.Close()
	eq, err := t.timed("server.EnqueueUpdate", len(t.us), time.Millisecond, func(i int) error {
		_, _, _, err := wsrv.EnqueueUpdate(facts(t.us[i].add), facts(t.us[i].drop))
		return err
	})
	if err != nil {
		return err
	}
	t.add("server.enqueue_update_ms", summarize(eq).P50, "ms", "EnqueueUpdate on the update stream")
	return nil
}

// durableLayers measures the WAL, checkpoint, restore and replica
// ship/apply paths on the workload's update stream, in a scratch data
// directory (the tc workloads never call them while served).
func (t *traced) durableLayers() error {
	recs := make([]*durable.Record, len(t.us))
	for i, o := range t.us {
		recs[i] = &durable.Record{Ins: facts(o.add), Del: facts(o.drop)}
	}
	var walBytes int64
	var syncStore *durable.Store
	for _, policy := range []durable.FsyncPolicy{durable.FsyncAlways, durable.FsyncOff} {
		st, _, err := durable.Open(filepath.Join(t.in.dir, "wal-"+policy.String()), policy, time.Second)
		if err != nil {
			return err
		}
		name := "durable.Append." + policy.String()
		per, err := t.timed(name, len(recs), time.Microsecond, func(i int) error {
			n, err := st.Append(recs[i])
			if policy == durable.FsyncAlways {
				walBytes += n
			}
			return err
		})
		if err != nil {
			return err
		}
		if policy == durable.FsyncAlways {
			t.add("durable.append_sync_us", summarize(per).P50, "us", "Store.Append, fsync always")
			syncStore = st
			continue
		}
		t.add("durable.append_nosync_us", summarize(per).P50, "us", "Store.Append, fsync off")
		st.Close()
	}
	defer syncStore.Close()
	t.add("durable.wal_bytes_per_update", float64(walBytes)/float64(len(recs)), "bytes", "framed WAL bytes per update")

	// Replica ship: one ReadWAL call per record, from the start.
	cur := syncStore.StartCursor()
	var payloads [][]byte
	ship, err := t.timed("replica.ReadWAL", len(recs), time.Microsecond, func(int) error {
		data, next, n, err := syncStore.ReadWAL(cur, 1)
		if err != nil {
			return err
		}
		if n != 1 {
			return fmt.Errorf("ReadWAL returned %d records, want 1", n)
		}
		frames, err := durable.ScanFrames(data)
		payloads = append(payloads, frames...)
		cur = next
		return err
	})
	if err != nil {
		return err
	}
	t.add("replica.ship_us", summarize(ship).P50, "us", "Store.ReadWAL per record")

	// Replica apply: decode each shipped record into a maintainer
	// restored from the pre-stream checkpoint, like a follower.
	m, err := incr.New(t.in.prog, t.db, t.in.sem)
	if err != nil {
		return err
	}
	fol, err := incr.Restore(m.Checkpoint())
	if err != nil {
		return err
	}
	apply, err := t.timed("replica.apply", len(payloads), time.Millisecond, func(i int) error {
		rec, err := durable.DecodeRecord(payloads[i])
		if err != nil {
			return err
		}
		_, err = fol.Update(rec.Ins, rec.Del)
		return err
	})
	if err != nil {
		return err
	}
	t.add("replica.apply_ms", summarize(apply).P50, "ms", "DecodeRecord plus the follower's Update")

	// Checkpoint the post-stream state, then restore it.
	ck, err := t.timed("durable.WriteCheckpoint", traceRepeats, time.Millisecond, func(int) error {
		return syncStore.WriteCheckpoint(fol.Checkpoint())
	})
	if err != nil {
		return err
	}
	fi, err := os.Stat(syncStore.SnapshotPath())
	if err != nil {
		return err
	}
	t.add("durable.checkpoint_ms", median(ck), "ms", "WriteCheckpoint of the post-stream state")
	t.add("durable.checkpoint_bytes", float64(fi.Size()), "bytes", "snapshot file size")
	rs, err := t.timed("durable.restore", traceRepeats, time.Millisecond, func(int) error {
		f, err := os.Open(syncStore.SnapshotPath())
		if err != nil {
			return err
		}
		defer f.Close()
		cp, err := durable.ReadSnapshot(f)
		if err != nil {
			return err
		}
		_, err = incr.Restore(cp)
		return err
	})
	if err != nil {
		return err
	}
	t.add("durable.restore_ms", median(rs), "ms", "ReadSnapshot plus incr.Restore")
	return nil
}

// querySplit splits the query latency: each query of the stream is
// sent over loopback to an in-process server whose handler runs under
// a child span of the client's, so the client span's self time is the
// socket and HTTP client share; the handler's own share is then split
// with the separately timed lookup and encoding.
func (t *traced) querySplit() error {
	srv, err := t.inProcess("")
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	// The client's span id travels in a header, so the handler span
	// becomes its child without state shared between the goroutines.
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get("X-Span"), 10, 64)
		sp := t.tr.begin("server.handler.loopback", &active{id: id, req: id})
		h.ServeHTTP(w, r)
		t.tr.end(sp)
	})
	ts := httptest.NewServer(wrapped)
	defer ts.Close()
	cl := newClient(t.cfg.w)
	for _, v := range t.qs {
		body, err := json.Marshal(queryRequest(t.cfg.w, v))
		if err != nil {
			return err
		}
		sp := t.tr.begin("http.roundtrip", nil)
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("X-Span", strconv.FormatInt(sp.id, 10))
		resp, err := cl.http.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t.tr.end(sp)
	}
	spans := t.tr.all()
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Name == "server.handler.loopback" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var roundtrip []float64
	for _, s := range spans {
		if s.Name == "http.roundtrip" {
			roundtrip = append(roundtrip, float64(s.End-s.Start-covered(s, kids[s.ID]))/1e3)
		}
	}
	in := t.rep.detail["split_inputs_us"].(map[string]float64)
	lookup := t.rep.metrics["relation.lookup_ns"].Value / 1e3
	t.add("split.http_client_us", summarize(roundtrip).P50, "us", "loopback round trip minus the handler span")
	t.add("split.handler_us", in["handler"]-in["json"]-lookup, "us", "handler minus encoding and lookup")
	t.add("split.json_encode_us", in["json"], "us", "server.json_encode_us")
	t.add("split.lookup_us", lookup, "us", "relation.lookup_ns")
	return nil
}
