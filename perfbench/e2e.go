package main

import (
	"fmt"
	"path/filepath"
	"time"
)

const (
	// Set-ups and kill -9 restarts per run; setup_s and recovery_s are
	// their medians.  An in-memory daemon starts in about ten
	// milliseconds, so its runs afford more repetitions.
	setupReps, setupRepsInMemory       = 5, 31
	recoveryReps, recoveryRepsInMemory = 7, 31
	recoveryOps                        = 64 // updates logged between a clean restart and each kill
	answerChecks                       = 16 // sampled answers checked against the oracle per run
	// openShare of the measured seconds is the open loop, which needs
	// the samples for its tails; the closed loop's throughput settles
	// within seconds.  At 50 s a run's open loop sends fewer than 1000
	// updates on every workload, so the update tail stays p95.
	openShare = 0.65
	// The measured seconds are cut into blocks of about blockSeconds,
	// each an open-loop stretch followed by a closed-loop one, so both
	// loops sample the host over the whole run rather than each over
	// its own part of it.
	blockSeconds = 5
	warmSeconds  = 3
)

// startMeasured starts the cluster several times on fresh data
// directories, keeping the last, and returns it with the median
// set-up time.
func startMeasured(cfg config, in *inputs) (*cluster, float64, error) {
	var times []float64
	var c *cluster
	reps := setupReps
	if !cfg.w.durable {
		reps = setupRepsInMemory
	}
	for i := 0; i < reps; i++ {
		if c != nil {
			c.stop()
		}
		var s float64
		var err error
		c, s, err = startCluster(cfg.serve, cfg.w, in.progFile, in.factsFile, filepath.Join(in.dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, 0, err
		}
		times = append(times, s)
	}
	return c, median(times), nil
}

func runEndToEnd(cfg config, in *inputs, rep *report) error {
	w := cfg.w
	c, setup, err := startMeasured(cfg, in)
	if err != nil {
		return err
	}
	defer c.stop()
	ld := newLoad(w, cfg.seed, in)

	// Warm up (connections, lazily built indexes, the rewrite cache)
	// outside the measured window.  Its updates are real and enter the
	// oracle like any other.
	warm := ld.run(c, phase{open: true, dur: secs(warmSeconds), rate: w.rate})
	total0, steal0 := cpuTicks()
	S := float64(cfg.seconds)
	blocks := max(1, int(S/blockSeconds+0.5))
	expectQueries := S * openShare * w.rate * float64(10-w.updatesPer10) / 10
	every := max(1, int(expectQueries)/(4*answerChecks))
	open, closed := &phaseOut{}, &phaseOut{}
	for b := 0; b < blocks; b++ {
		open.merge(ld.run(c, phase{open: true, dur: secs(openShare * S / float64(blocks)), rate: w.rate, probe: true, sampleEvery: every}))
		closed.merge(ld.run(c, phase{dur: secs((1 - openShare) * S / float64(blocks)), sampleEvery: every}))
	}
	total1, steal1 := cpuTicks()
	rep.detail["steal_share"] = float64(steal1-steal0) / float64(max(total1-total0, 1))
	rss, err := c.leader.vmHWM()
	if err != nil {
		return err
	}

	rep.attempted = warm.attempted + open.attempted + closed.attempted
	rep.failed = warm.failed + open.failed + closed.failed
	for _, o := range []*phaseOut{warm, open, closed} {
		for _, e := range o.errs {
			rep.problem("request failed: %s", e)
		}
	}
	if ld.uncertain > 0 {
		rep.problem("%d updates with unknown outcome", ld.uncertain)
	}

	// Correctness: final state, follower, sampled answers.
	preds := append(in.prog.IDBList(), "E")
	want, err := oracle(in.prog, in.sem, edbAt(in.edges, ld.owners, ^uint64(0)))
	if err != nil {
		return err
	}
	leaderDB, leaderGen, err := fetch(c.leader.url, preds)
	if err != nil {
		return err
	}
	if d := diff(leaderDB, want); d != "" {
		rep.problem("leader at generation %d differs from the core.Eval oracle: %s", leaderGen, d)
	}
	if c.follower != nil {
		if _, err := c.follower.waitGen(leaderGen, 30*time.Second); err != nil {
			rep.problem("follower never caught up: %v", err)
		} else if fdb, fgen, err := fetch(c.follower.url, preds); err != nil {
			return err
		} else if d := diff(fdb, leaderDB); d != "" || fgen != leaderGen {
			rep.problem("follower at generation %d differs from the leader at %d: %s", fgen, leaderGen, d)
		}
	}
	answers := append(open.answers, closed.answers...)
	checked, wrong, err := checkAnswers(w, in.prog, in.sem, in.edges, ld.owners, answers, answerChecks)
	if err != nil {
		return err
	}
	for _, m := range wrong {
		rep.problem("wrong answer: %s", m)
	}
	rep.failed += len(wrong)

	recovery, err := measureRecovery(cfg, in, c, ld, rep)
	if err != nil {
		return err
	}

	q, u, lag := summarize(open.queryMs), summarize(open.updateMs), summarize(open.lagMs)
	late := summarize(open.lateMs)
	pct := func(s summary) string { return fmt.Sprintf("p%g of %d samples", s.TailPct, s.N) }
	rep.add("setup_s", setup, "s", "median of the run's set-ups")
	rep.add("ops_per_s", float64(closed.completed)/closed.elapsed.Seconds(), "1/s",
		fmt.Sprintf("closed loop, %d clients, %d ops in %.1fs over %d blocks", len(ld.clients), closed.completed, closed.elapsed.Seconds(), blocks))
	rep.add("query_p50_ms", q.P50, "ms", fmt.Sprintf("open loop %.0f req/s, %d samples", w.rate, q.N))
	// The query tail is reported but not gated: on a shared two-CPU
	// machine its run-to-run spread exceeds any allowed bound (see
	// CHANGES.md).
	rep.info("query_tail_ms", q.Tail, "ms", pct(q))
	rep.add("update_p50_ms", u.P50, "ms", fmt.Sprintf("%d samples", u.N))
	rep.add("update_tail_ms", u.Tail, "ms", pct(u))
	rep.add("ok_ratio", 1-float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio",
		fmt.Sprintf("%d failed or wrong of %d attempted; %d answers checked", rep.failed, rep.attempted, checked))
	rep.add("follower_lag_p50_ms", lag.P50, "ms", fmt.Sprintf("%d acknowledged generations", lag.N))
	rep.add("follower_lag_tail_ms", lag.Tail, "ms", pct(lag))
	rep.add("recovery_s", recovery, "s", "median of the run's kill -9 restarts")
	rep.add("peak_rss_mb", rss, "MiB", "leader VmHWM")
	rep.detail["generator_lateness_ms"] = late
	rep.detail["open_loop"] = map[string]summary{"query": q, "update": u, "follower_lag": lag}
	rep.detail["checked_answers"] = checked
	rep.detail["raw_open_query_ms"] = open.queryMs
	rep.detail["raw_open_update_ms"] = open.updateMs
	rep.detail["raw_open_lag_ms"] = open.lagMs
	rep.detail["closed_loop"] = map[string]summary{"query": summarize(closed.queryMs), "update": summarize(closed.updateMs)}
	return nil
}

// measureRecovery kills the leader with SIGKILL and restarts it on the
// same command line several times, returning the median seconds
// until it answers again.  A durable leader first restarts cleanly (its
// final checkpoint empties the WAL) and then logs exactly recoveryOps
// updates before each kill, so every recovery replays the same amount
// of log; after each restart every acknowledged update must be there.
// An in-memory leader recovers by evaluating its facts file again.
func measureRecovery(cfg config, in *inputs, c *cluster, ld *load, rep *report) (float64, error) {
	if c.follower != nil {
		c.follower.stop()
		c.follower = nil
	}
	preds := append(in.prog.IDBList(), "E")
	if cfg.w.durable {
		c.leader.stop()
		d, err := c.leader.restart(cfg.serve)
		if err != nil {
			return 0, err
		}
		c.leader = d
		if _, err := d.waitGen(lastAck(ld.owners), 60*time.Second); err != nil {
			return 0, err
		}
	}
	var times []float64
	reps := recoveryReps
	if !cfg.w.durable {
		reps = recoveryRepsInMemory
	}
	for i := 0; i < reps; i++ {
		if cfg.w.durable {
			for j := 0; j < recoveryOps; j++ {
				g := ld.owners[j%len(ld.owners)]
				rep.attempted++
				var out phaseOut
				if _, err := ld.clients[0].update(c.leader.url, g, g.next(), &out); err != nil {
					rep.failed++
					rep.problem("recovery update failed: %v", err)
				}
			}
		}
		c.leader.kill9()
		t0 := time.Now()
		d, err := c.leader.restart(cfg.serve)
		if err != nil {
			return 0, err
		}
		c.leader = d
		if _, err := d.waitGen(0, 60*time.Second); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if !cfg.w.durable {
			continue
		}
		want, err := oracle(in.prog, in.sem, edbAt(in.edges, ld.owners, ^uint64(0)))
		if err != nil {
			return 0, err
		}
		got, gen, err := fetch(d.url, preds)
		if err != nil {
			return 0, err
		}
		if gen < lastAck(ld.owners) {
			rep.problem("restarted leader at generation %d, below the last acknowledged %d", gen, lastAck(ld.owners))
		}
		if df := diff(got, want); df != "" {
			rep.problem("acknowledged updates lost across kill -9: %s", df)
		}
	}
	return median(times), nil
}
