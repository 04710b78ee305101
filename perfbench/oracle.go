package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/semantics"
	"repro/internal/server"
)

// edbAt returns the edge set implied by the initial graph plus every
// update acknowledged at generation gen or earlier.  Lanes toggle
// disjoint pairs, so applying each owner's updates in its own order
// gives the one database all interleavings agree on.
func edbAt(initial []edge, owners []*owner, gen uint64) map[edge]bool {
	set := make(map[edge]bool, len(initial))
	for _, e := range initial {
		set[e] = true
	}
	for _, g := range owners {
		for _, a := range g.acked {
			if a.gen > gen {
				break
			}
			for _, e := range a.op.drop {
				delete(set, e)
			}
			for _, e := range a.op.add {
				set[e] = true
			}
		}
	}
	return set
}

// lastAck is the highest generation acknowledged to any owner.
func lastAck(owners []*owner) uint64 {
	var gen uint64
	for _, g := range owners {
		if n := len(g.acked); n > 0 {
			gen = max(gen, g.acked[n-1].gen)
		}
	}
	return gen
}

// db maps each relation name to its tuples, comma-joined and sorted.
type db map[string][]string

// oracle evaluates the program from scratch with core.Eval on edges.
func oracle(prog *ast.Program, sem core.Semantics, edges map[edge]bool) (db, error) {
	d := relation.NewDatabase()
	rel := d.MustEnsure("E", 2)
	keys := make([]edge, 0, len(edges))
	for e := range edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	u := d.Universe()
	for _, e := range keys {
		rel.Add(relation.Tuple{u.Intern(vname(e[0])), u.Intern(vname(e[1]))})
	}
	res, err := core.Eval(prog, d, sem, semantics.SemiNaive)
	if err != nil {
		return nil, err
	}
	out := db{}
	for _, pred := range prog.IDBList() {
		var rows []string
		if r := res.State[pred]; r != nil {
			for _, t := range r.Tuples() {
				parts := make([]string, len(t))
				for i, v := range t {
					parts[i] = res.Universe.Name(v)
				}
				rows = append(rows, strings.Join(parts, ","))
			}
		}
		sort.Strings(rows)
		out[pred] = rows
	}
	var rows []string
	for _, e := range keys {
		rows = append(rows, vname(e[0])+","+vname(e[1]))
	}
	sort.Strings(rows)
	out["E"] = rows
	return out, nil
}

// fetch reads the named relations from a running daemon.
func fetch(url string, preds []string) (db, uint64, error) {
	out := db{}
	var gen uint64
	for i, pred := range preds {
		resp, err := probeClient.Get(url + "/v1/relation?pred=" + pred)
		if err != nil {
			return nil, 0, err
		}
		var rel server.RelationResponse
		err = json.NewDecoder(resp.Body).Decode(&rel)
		resp.Body.Close()
		if err != nil {
			return nil, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, 0, fmt.Errorf("GET %s/v1/relation?pred=%s: %s", url, pred, resp.Status)
		}
		if i == 0 {
			gen = rel.Generation
		} else if rel.Generation != gen {
			return nil, 0, fmt.Errorf("%s moved from generation %d to %d while being read", url, gen, rel.Generation)
		}
		out[pred] = joinTuples(rel.Tuples)
	}
	return out, gen, nil
}

// diff describes the first difference between two databases, or ""
// when they are equal.
func diff(got, want db) string {
	for pred, w := range want {
		g := got[pred]
		if len(g) != len(w) {
			return fmt.Sprintf("%s has %d tuples, want %d", pred, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				return fmt.Sprintf("%s differs: got (%s), want (%s)", pred, g[i], w[i])
			}
		}
	}
	return ""
}

// expectedAnswer filters the oracle's query relation to the tuples
// whose first column is vertex v.
func expectedAnswer(d db, pred string, v int) []string {
	prefix := vname(v)
	var out []string
	for _, row := range d[pred] {
		if row == prefix || strings.HasPrefix(row, prefix+",") {
			out = append(out, row)
		}
	}
	return out
}

// checkAnswers compares sampled query answers with the oracle at the
// generation each answer reports, evaluating at most limit distinct
// generations spread evenly over the samples.  It returns the number
// of answers checked and the wrong ones.
func checkAnswers(w *workload, prog *ast.Program, sem core.Semantics, initial []edge, owners []*owner, answers []answer, limit int) (int, []string, error) {
	sort.Slice(answers, func(i, j int) bool { return answers[i].gen < answers[j].gen })
	if len(answers) > limit {
		picked := make([]answer, 0, limit)
		for i := 0; i < limit; i++ {
			picked = append(picked, answers[i*len(answers)/limit])
		}
		answers = picked
	}
	var wrong []string
	cache := map[uint64]db{}
	for _, a := range answers {
		want, ok := cache[a.gen]
		if !ok {
			var err error
			if want, err = oracle(prog, sem, edbAt(initial, owners, a.gen)); err != nil {
				return 0, nil, err
			}
			cache[a.gen] = want
		}
		exp := expectedAnswer(want, w.queryPred, a.v)
		if strings.Join(exp, " ") != strings.Join(a.tuples, " ") {
			wrong = append(wrong, fmt.Sprintf("%s(%s,…) at generation %d: got %d tuples, want %d",
				w.queryPred, vname(a.v), a.gen, len(a.tuples), len(exp)))
		}
	}
	return len(answers), wrong, nil
}
