package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/incr"
	"repro/internal/server"
)

// client is one load-generator client: one goroutine, one request in
// flight, one keep-alive connection per daemon it talks to.
type client struct {
	w    *workload
	http *http.Client
}

func newClient(w *workload) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{w: w, http: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// load is the generator's state across phases: the update owners and
// the clients, min(2, nproc) of each.  Every phase uses the same
// clients, so the generator never has more requests in flight than
// the machine has CPUs.
type load struct {
	w       *workload
	seed    uint64
	owners  []*owner
	clients []*client
	phases  int // seeds each phase's request mix
	nextOwn int // round-robin owner for the open loop's updates
	// uncertain counts updates whose outcome is unknown because the
	// response never arrived.
	uncertain int
}

func newLoad(w *workload, seed uint64, in *inputs) *load {
	n := min(2, runtime.NumCPU())
	l := &load{w: w, seed: seed}
	for i := 0; i < n; i++ {
		l.owners = append(l.owners, newOwner(w, seed, i, n, in.initial, in.order))
		l.clients = append(l.clients, newClient(w))
	}
	return l
}

// answer is a sampled query answer kept for the oracle check.
type answer struct {
	v      int
	gen    uint64
	tuples []string // sorted, comma-joined
}

// phaseOut is what the clients measured in one phase.
type phaseOut struct {
	queryMs, updateMs []float64 // latency per completed request
	lateMs            []float64 // send time minus due time (open loop)
	lagMs             []float64 // ack until the reader serves the generation
	attempted, failed int
	completed         int
	elapsed           time.Duration // from the phase start until its last response
	uncertain         int
	answers           []answer
	errs              []string
}

func (o *phaseOut) fail(err error) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
	}
}

func (o *phaseOut) merge(p *phaseOut) {
	o.queryMs = append(o.queryMs, p.queryMs...)
	o.updateMs = append(o.updateMs, p.updateMs...)
	o.lateMs = append(o.lateMs, p.lateMs...)
	o.lagMs = append(o.lagMs, p.lagMs...)
	o.attempted += p.attempted
	o.failed += p.failed
	o.completed += p.completed
	o.elapsed += p.elapsed
	o.uncertain += p.uncertain
	o.answers = append(o.answers, p.answers...)
	o.errs = append(o.errs, p.errs...)
}

type statusError struct {
	url    string
	status int
	body   string
}

func (e *statusError) Error() string { return fmt.Sprintf("POST %s: %d %s", e.url, e.status, e.body) }

func (c *client) post(url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := c.http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	if r.StatusCode != http.StatusOK {
		return &statusError{url: url, status: r.StatusCode, body: strings.TrimSpace(string(data))}
	}
	return json.Unmarshal(data, resp)
}

// queryRequest binds the first column of the workload's query
// predicate to vertex v.
func queryRequest(w *workload, v int) server.QueryRequest {
	name := vname(v)
	args := make([]*string, w.queryArgs)
	args[0] = &name
	return server.QueryRequest{Pred: w.queryPred, Args: args}
}

func (c *client) query(url string, v int) (*server.QueryResponse, error) {
	var resp server.QueryResponse
	if err := c.post(url+"/v1/query", queryRequest(c.w, v), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func facts(es []edge) []incr.Fact {
	out := make([]incr.Fact, len(es))
	for i, e := range es {
		out[i] = incr.Fact{Pred: "E", Args: []string{vname(e[0]), vname(e[1])}}
	}
	return out
}

// update sends one of g's updates and records the acknowledgement.
func (c *client) update(url string, g *owner, o op, out *phaseOut) (*server.UpdateResponse, error) {
	var resp server.UpdateResponse
	err := c.post(url+"/v1/update", server.UpdateRequest{Insert: facts(o.add), Delete: facts(o.drop)}, &resp)
	if err != nil {
		var se *statusError
		if !errors.As(err, &se) {
			out.uncertain++ // the leader may or may not have applied it
		}
		return nil, err
	}
	g.acked = append(g.acked, ackedOp{gen: resp.Generation, op: o})
	return &resp, nil
}

// phase describes one measured (or warm-up) stretch of traffic.
type phase struct {
	open        bool // open loop at rate; closed loop otherwise
	dur         time.Duration
	rate        float64 // open-loop requests per second
	probe       bool    // after each update, poll the reader until it serves the new generation
	sampleEvery int     // keep every n-th query answer for the oracle (0 = none)
	tr          *tracer // records a span per request when set
}

// request is one scheduled open-loop request.
type request struct {
	due time.Duration // since the phase start
	op  op
	own *owner // updates only
}

// run drives one phase and merges what the clients measured.
//
// The open loop schedules request k at k/rate.  Queries go to the
// first client and updates to the second, each in due order, so a
// slow update never holds up the queries behind it in the generator;
// latency is timed from the due time, so a stall also charges every
// request it delays.  The closed loop runs every client on the
// workload's mix, each sending its next request as soon as the last
// one completes and updating only its own owner's pairs.
func (l *load) run(c *cluster, ph phase) *phaseOut {
	l.phases++
	outs := make([]*phaseOut, len(l.clients))
	for i := range outs {
		outs[i] = &phaseOut{}
	}
	var wg sync.WaitGroup
	start := time.Now()
	if ph.open {
		queries, updates := l.schedule(ph)
		lists := [][]request{queries, updates}
		if len(l.clients) == 1 {
			lists = [][]request{merge(queries, updates)}
		}
		for i, list := range lists {
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.clients[i].open(c, ph, start, list, outs[i])
			}()
		}
	} else {
		end := start.Add(ph.dur)
		for i, cl := range l.clients {
			m := newMix(l.w, l.seed, uint64(l.phases*16+i))
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl.closed(c, ph, end, m, l.owners[i], outs[i])
			}()
		}
	}
	wg.Wait()
	all := &phaseOut{elapsed: time.Since(start)}
	for _, o := range outs {
		all.merge(o) // the clients' own elapsed is zero
	}
	l.uncertain += all.uncertain
	return all
}

// schedule generates the open loop's requests from the seed: updatesPer10
// of every ten slots are updates, evenly spaced, and the rest query
// seeded vertices.
func (l *load) schedule(ph phase) (queries, updates []request) {
	m := newMix(l.w, l.seed, uint64(l.phases*16))
	n := int(ph.dur.Seconds() * ph.rate)
	for k := 0; k < n; k++ {
		r := request{due: time.Duration(float64(k) / ph.rate * float64(time.Second))}
		// Updates are evenly spaced, so the update client, which
		// probes the reader after each, is idle again before the next
		// one is due.
		if k*l.w.updatesPer10%10 >= l.w.updatesPer10 {
			r.op = op{v: m.vertex()}
			queries = append(queries, r)
			continue
		}
		r.own = l.owners[l.nextOwn%len(l.owners)]
		l.nextOwn++
		r.op = r.own.next()
		updates = append(updates, r)
	}
	return queries, updates
}

func merge(a, b []request) []request {
	out := append(append([]request(nil), a...), b...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (c *client) open(cl *cluster, ph phase, start time.Time, list []request, out *phaseOut) {
	queries := 0
	for _, r := range list {
		due := start.Add(r.due)
		waitUntil(due)
		out.lateMs = append(out.lateMs, ms(time.Since(due)))
		c.do(cl, ph, r.op, r.own, due, &queries, out)
	}
}

func (c *client) closed(cl *cluster, ph phase, end time.Time, m *mix, g *owner, out *phaseOut) {
	queries := 0
	for time.Now().Before(end) {
		o := op{}
		if isUpdate, v := m.next(); isUpdate {
			o = g.next()
		} else {
			o.v = v
		}
		c.do(cl, ph, o, g, time.Now(), &queries, out)
	}
}

// do sends one request and records its latency since since.
func (c *client) do(cl *cluster, ph phase, o op, g *owner, since time.Time, queries *int, out *phaseOut) {
	out.attempted++
	sp := ph.tr.begin("request", nil)
	if !o.update {
		resp, err := c.query(cl.reader().url, o.v)
		ph.tr.end(sp)
		if err != nil {
			out.fail(err)
			return
		}
		out.completed++
		out.queryMs = append(out.queryMs, ms(time.Since(since)))
		if ph.sampleEvery > 0 && *queries%ph.sampleEvery == 0 {
			out.answers = append(out.answers, answer{v: o.v, gen: resp.Generation, tuples: joinTuples(resp.Tuples)})
		}
		*queries++
		return
	}
	resp, err := c.update(cl.leader.url, g, o, out)
	ph.tr.end(sp)
	if err != nil {
		out.fail(err)
		return
	}
	acked := time.Now()
	out.completed++
	out.updateMs = append(out.updateMs, ms(acked.Sub(since)))
	if ph.probe {
		if err := c.probe(cl.reader().url, o, resp.Generation, acked, out); err != nil {
			out.fail(err)
		}
	}
}

// waitUntil sleeps until shortly before t and spins the rest: a timer
// alone wakes up to a millisecond late, which would count as latency.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

const spinWindow = 1100 * time.Microsecond

// probe polls the reader with a point query until it answers at
// generation gen or later, and records the lag since the leader's
// acknowledgement.
func (c *client) probe(url string, o op, gen uint64, acked time.Time, out *phaseOut) error {
	deadline := acked.Add(10 * time.Second)
	for {
		resp, err := c.query(url, o.add[0][0])
		if err != nil {
			return err
		}
		if resp.Generation >= gen {
			out.lagMs = append(out.lagMs, ms(time.Since(acked)))
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("reader still below generation %d 10s after the ack", gen)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func joinTuples(ts [][]string) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = strings.Join(t, ",")
	}
	sort.Strings(out)
	return out
}
