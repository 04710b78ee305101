package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval.  Spans of one request share Req; a
// root span's Req is its own ID.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Ops    int    `json:"ops,omitempty"` // calls the span covers, when it times a batch
}

// tracer keeps spans in memory; they are written out once, at the
// end of the run.  A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is a begun, not yet ended span.
type active struct {
	id, parent, req int64
	name            string
	start           time.Time
}

// begin opens a span under parent, or a new request's root span when
// parent is nil.
func (t *tracer) begin(name string, parent *active) active {
	if t == nil {
		return active{}
	}
	a := active{id: t.next.Add(1), name: name, start: time.Now()}
	a.req = a.id
	if parent != nil {
		a.parent, a.req = parent.id, parent.req
	}
	return a
}

func (t *tracer) end(a active) time.Duration { return t.endOps(a, 0) }

// endOps closes a span that timed ops calls of one function, and
// returns its duration.
func (t *tracer) endOps(a active, ops int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: a.id, Parent: a.parent, Req: a.req, Name: a.name,
		Start: int64(a.start.Sub(t.t0)), End: int64(now.Sub(t.t0)), Ops: ops,
	})
	t.mu.Unlock()
	return now.Sub(a.start)
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime aggregates one span name.
type layerTime struct {
	Name      string  `json:"name"`
	Spans     int     `json:"spans"`
	Ops       int     `json:"ops"`
	TotalMs   float64 `json:"total_ms"`
	SelfMs    float64 `json:"self_ms"` // total minus the time child spans cover
	SelfP50Us float64 `json:"self_p50_us"`
}

// selfTimes reports, per span name, the total and self time: a span's
// self time is its duration minus the part of its interval covered by
// its children.
func selfTimes(spans []span) []layerTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*layerTime{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		lt.Spans++
		lt.Ops += max(s.Ops, 1)
		lt.TotalMs += float64(s.End-s.Start) / 1e6
		lt.SelfMs += float64(self) / 1e6
		selfs[s.Name] = append(selfs[s.Name], float64(self)/1e3)
	}
	out := make([]layerTime, 0, len(by))
	for name, lt := range by {
		lt.SelfP50Us = summarize(selfs[name]).P50
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64 = 0, 0, -1
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
