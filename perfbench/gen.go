package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// workload fixes one traffic mix: the program the daemon serves, the
// shape of the seeded graph it is served on, and the request mix and
// open-loop rate the load generator drives it with.
type workload struct {
	name      string
	program   string
	semantics string
	magic     bool // daemon answers IDB queries demand-driven
	durable   bool // leader with a data dir plus one follower
	queryPred string
	queryArgs int // arity of queryPred; the first column is bound

	vertices, edges int
	chains          int     // disjoint random Hamiltonian paths plus forward chords; 0 = G(n, m)
	updatesPer10    int     // updates in every deck of ten requests
	rate            float64 // open-loop requests per second over all clients
	outstanding     int     // inserted edges an owner keeps before deleting
}

const tcProgram = `s(X,Y) :- E(X,Y).
s(X,Y) :- s(X,Z), E(Z,Y).
oneway(X,Y) :- E(X,Y), !s(Y,X).
`

// winProgram is the paper's π1.
const winProgram = "t(X) :- E(Y,X), !t(Y).\n"

// workloads lists the benchmark's traffic mixes and why each exists:
//
//   - tc-read: the read path (HTTP, JSON, snapshot lookup) does most of
//     the work; the engine runs only inside updates, where DRed
//     maintains s and counting maintains oneway.  Durability, the
//     replica and magic sets are idle.
//   - tc-magic: tc-read's program, data and requests with every query a
//     demand-driven fixpoint, so its difference from tc-read is the
//     engine and magic cost.  It runs by name but is not in
//     BENCHMARK.json: the time a full check allows fits two workloads
//     at run lengths long enough to be steady on a shared two-CPU host.
//   - winmove-durable: the write path does most of the work: stage
//     replay, WAL fsync, checkpoints, group commit and replica
//     ship/apply.
//
// The tc graph is eight 50-vertex chains (|s| = 9800 for every seed):
// an update's DRed pass then costs about 15 ms, and the rates keep every
// daemon well below saturation on a two-CPU machine.
var workloads = []*workload{
	{
		name: "tc-read", program: tcProgram, semantics: "stratified",
		queryPred: "s", queryArgs: 2,
		vertices: 400, edges: 600, chains: 8, updatesPer10: 1, rate: 150, outstanding: 4,
	},
	{
		name: "tc-magic", program: tcProgram, semantics: "stratified", magic: true,
		queryPred: "s", queryArgs: 2,
		vertices: 400, edges: 600, chains: 8, updatesPer10: 1, rate: 150, outstanding: 4,
	},
	{
		name: "winmove-durable", program: winProgram, semantics: "inflationary", durable: true,
		queryPred: "t", queryArgs: 1,
		vertices: 4000, edges: 8000, updatesPer10: 2, rate: 150, outstanding: 4,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

type edge [2]int

// vname names vertex i in the generated fact file and in requests.
func vname(i int) string { return fmt.Sprintf("v%d", i) }

// graph draws a seeded digraph with exactly w.edges distinct edges and
// no self-loops over w.vertices vertices.  With w.chains > 0 it splits
// a random vertex order into that many equal segments, links each
// segment into a path, and adds chords that point forward within a
// segment: a random DAG whose closure has exactly the same size for
// every seed, so the work an update or a query does has the same
// distribution whatever the seed.  It returns the vertex order then.
// Otherwise the edges are uniform (G(n, m)) and order is nil.
func graph(w *workload, seed uint64) (edges []edge, order []int) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	seen := make(map[edge]bool, w.edges)
	out := make([]edge, 0, w.edges)
	addEdge := func(e edge) {
		if e[0] != e[1] && !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	if w.chains == 0 {
		for len(out) < w.edges {
			addEdge(edge{rng.IntN(w.vertices), rng.IntN(w.vertices)})
		}
		return out, nil
	}
	order = rng.Perm(w.vertices)
	seg := w.vertices / w.chains
	for i := 1; i < len(order); i++ {
		if i%seg != 0 {
			addEdge(edge{order[i-1], order[i]})
		}
	}
	for len(out) < w.edges {
		base := rng.IntN(w.chains) * seg
		i, j := base+rng.IntN(seg), base+rng.IntN(seg)
		addEdge(edge{order[min(i, j)], order[max(i, j)]})
	}
	return out, order
}

// factsText renders edges as the daemon's fact file.
func factsText(edges []edge) string {
	var b strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&b, "E(%s,%s).\n", vname(e[0]), vname(e[1]))
	}
	return b.String()
}

// op is one generated request: a point query on the workload's query
// predicate with the first column bound to vertex v, or an update that
// inserts the edges in add and deletes those in drop.
type op struct {
	update    bool
	v         int
	add, drop []edge
}

// mix deals the closed loop's request kinds: exactly updatesPer10
// updates in every ten requests, in a seeded order, and uniform query
// vertices.
type mix struct {
	w     *workload
	rng   *rand.Rand
	deck  []bool
	dealt int
}

func newMix(w *workload, seed, stream uint64) *mix {
	return &mix{w: w, rng: rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d+stream)), deck: make([]bool, 10), dealt: 10}
}

// vertex draws the vertex a query binds.
func (m *mix) vertex() int { return m.rng.IntN(m.w.vertices) }

// next reports whether the next request is an update, and otherwise
// the vertex the query binds.
func (m *mix) next() (update bool, v int) {
	if m.dealt == len(m.deck) {
		for i := range m.deck {
			m.deck[i] = i < m.w.updatesPer10
		}
		m.rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
		m.dealt = 0
	}
	m.dealt++
	if m.deck[m.dealt-1] {
		return true, 0
	}
	return false, m.vertex()
}

// owner produces the updates of one share of the vertex pairs.  The
// stream depends only on the seed and the owner, never on responses.
// Owners toggle disjoint pairs, and each owner's updates are sent by
// one client at a time, in order; so updates of different owners
// commute, and the database any set of acknowledged updates implies is
// well defined however the clients interleave.  Every update inserts
// an edge absent from the initial graph between two existing vertices;
// once the owner holds w.outstanding such edges, the same update also
// deletes the oldest.  The database thus stays within a fixed distance
// of the initial graph, and (after the first few) every update does
// both an insert and a delete, so update costs do not split into two
// modes.  On a chain graph short cycles come and go (see pair), but
// the closure never collapses into one strongly connected component.
type owner struct {
	w          *workload
	id, owners int
	rng        *rand.Rand
	initial    map[edge]bool
	order      []int  // the chain's vertex order, nil for G(n, m)
	out        []edge // inserted edges not yet deleted, oldest first
	outSet     map[edge]bool
	acked      []ackedOp // acknowledged updates, in order
}

// ackedOp is an update the leader acknowledged at generation gen.
type ackedOp struct {
	gen uint64
	op  op
}

func newOwner(w *workload, seed uint64, id, owners int, initial map[edge]bool, order []int) *owner {
	return &owner{
		w: w, id: id, owners: owners,
		rng:     rand.New(rand.NewPCG(seed, 0x51ed270b27f3a1c5+uint64(id))),
		initial: initial,
		order:   order,
		outSet:  make(map[edge]bool),
	}
}

// owns reports whether the owner may toggle e.
func (g *owner) owns(e edge) bool { return (e[0]*7+e[1])%g.owners == g.id }

func (g *owner) next() op {
	o := op{update: true}
	// Draw the new edge while the oldest is still held, so one update
	// never inserts and deletes the same edge.
	for {
		e := g.pair()
		if e[0] != e[1] && g.owns(e) && !g.initial[e] && !g.outSet[e] {
			o.add = []edge{e}
			break
		}
	}
	if len(g.out) >= g.w.outstanding {
		o.drop = []edge{g.out[0]}
		delete(g.outSet, g.out[0])
		g.out = g.out[1:]
	}
	g.out = append(g.out, o.add[0])
	g.outSet[o.add[0]] = true
	return o
}

// pair draws a candidate vertex pair for an inserted edge.  On a
// chain graph both ends lie in one segment: three in four point
// forward, the rest back by at most four steps.
func (g *owner) pair() edge {
	n := g.w.vertices
	if g.order == nil {
		return edge{g.rng.IntN(n), g.rng.IntN(n)}
	}
	seg := n / g.w.chains
	i := g.rng.IntN(n)
	base := i / seg * seg
	j := i + 1 + g.rng.IntN(seg) // forward
	if g.rng.IntN(4) == 0 {
		j = i - 1 - g.rng.IntN(4) // a short step back
	}
	if j < base || j >= base+seg {
		return edge{} // a self-loop: rejected by the caller
	}
	return edge{g.order[i], g.order[j]}
}
