// Command perfbench is the repository benchmark.  It builds nothing
// itself: perfbench/run.sh builds cmd/serve and this program from the
// checkout, then runs
//
//	perfbench -root DIR -serve BIN --workload NAME --seed N --seconds S --trace 0|1
//
// It generates the workload's program, graph and request
// streams from the seed, starts the real serve daemon(s) on loopback
// with only the generated files, and drives them over HTTP from
// min(2, nproc) clients.  With --trace 0 it measures the end-to-end
// metrics: an open-loop phase at the workload's fixed rate for
// latencies and follower lag, a closed-loop phase for throughput,
// set-up, crash recovery and peak memory.  With --trace 1 it measures
// the per-layer metrics instead, calling each layer's public functions
// on the workload's own data under spans.  Every run checks the
// answers against a from-scratch core.Eval oracle.  The last line of
// standard output is one JSON object; a failed check exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/parser"
)

type config struct {
	root, serve string
	w           *workload
	seed        uint64
	seconds     int
	trace       bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result of one run.  Metrics keep their order for the
// human-readable listing.
type report struct {
	correct           bool
	attempted, failed int
	names             []string
	metrics           map[string]metric
	notes             map[string]string // per metric: percentile and samples, or what it should move
	ungated           map[string]bool   // printed and kept, but left out of the result line
	problems          []string
	detail            map[string]any // written to the result file
}

func newReport() *report {
	return &report{correct: true, metrics: map[string]metric{}, notes: map[string]string{},
		ungated: map[string]bool{}, detail: map[string]any{}}
}

func (r *report) add(name string, v float64, unit, note string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// info records a metric that is printed and kept in the result file
// but left out of the result line, so nothing gates on it.
func (r *report) info(name string, v float64, unit, note string) {
	r.add(name, v, unit, note+" (not gated)")
	r.ungated[name] = true
}

// problem records a failed correctness check.
func (r *report) problem(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	var cfg config
	var wname string
	var seed int64
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.StringVar(&cfg.serve, "serve", "", "serve binary built from the checkout")
	flag.StringVar(&wname, "workload", "", "workload name")
	flag.Int64Var(&seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "seconds of measurement")
	flag.Func("trace", "1 = traced per-layer run, 0 = end-to-end run", func(s string) error {
		switch s {
		case "0", "false":
			cfg.trace = false
		case "1", "true":
			cfg.trace = true
		default:
			return fmt.Errorf("want 0 or 1")
		}
		return nil
	})
	flag.Parse()
	w, err := workloadByName(wname)
	if err != nil {
		fatal(err)
	}
	if cfg.serve == "" || cfg.seconds < 1 {
		fatal(fmt.Errorf("need -serve and --seconds >= 1"))
	}
	cfg.w, cfg.seed = w, uint64(seed)

	// The generator allocates little; collecting rarely keeps its own
	// pauses out of the latencies it times.
	debug.SetGCPercent(400)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(2)
	}()

	rep, err := run(cfg)
	killAll()
	if err != nil {
		fatal(err)
	}
	printReport(cfg, rep)
	if !rep.correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	killAll()
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// live tracks started daemons so every exit path stops them.
var live sync.Map // *daemon → struct{}

func killAll() {
	live.Range(func(k, _ any) bool {
		k.(*daemon).kill9()
		return true
	})
}

// inputs are the generated files and their parsed forms.
type inputs struct {
	dir, progFile, factsFile string
	prog                     *ast.Program
	sem                      core.Semantics
	edges                    []edge
	order                    []int
	initial                  map[edge]bool
}

func generate(cfg config, dir string) (*inputs, error) {
	in := &inputs{dir: dir, initial: map[edge]bool{}}
	in.edges, in.order = graph(cfg.w, cfg.seed)
	for _, e := range in.edges {
		in.initial[e] = true
	}
	in.progFile = filepath.Join(dir, "program.dl")
	in.factsFile = filepath.Join(dir, "facts.dl")
	if err := os.WriteFile(in.progFile, []byte(cfg.w.program), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(in.factsFile, []byte(factsText(in.edges)), 0o644); err != nil {
		return nil, err
	}
	var err error
	if in.prog, err = parser.Program(cfg.w.program); err != nil {
		return nil, err
	}
	if in.sem, err = core.ParseSemantics(cfg.w.semantics); err != nil {
		return nil, err
	}
	return in, nil
}

func run(cfg config) (*report, error) {
	out := filepath.Join(cfg.root, ".bench_build")
	dir := filepath.Join(out, fmt.Sprintf("run-%s-%d-%d", cfg.w.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in, err := generate(cfg, dir)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	fp := machine(cfg.root)
	rep.detail["machine"] = fp
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		err = runTraced(cfg, in, rep, tr)
	} else {
		err = runEndToEnd(cfg, in, rep)
	}
	if err != nil {
		return nil, fmt.Errorf("%w (daemon logs under %s)", err, dir)
	}
	res := filepath.Join(out, "results")
	if err := os.MkdirAll(res, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(res, fmt.Sprintf("%s-seed%d-trace%t", cfg.w.name, cfg.seed, cfg.trace))
	if tr != nil {
		if err := tr.write(base + ".spans.json"); err != nil {
			return nil, err
		}
	}
	rep.detail["metrics"] = rep.metrics
	rep.detail["notes"] = rep.notes
	rep.detail["problems"] = rep.problems
	data, err := json.MarshalIndent(rep.detail, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return nil, err
	}
	if rep.correct {
		os.RemoveAll(dir)
	}
	return rep, nil
}

func printReport(cfg config, rep *report) {
	fp := rep.detail["machine"].(fingerprint)
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%t\n", cfg.w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("machine: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s calibration=%.3f ns/op\n",
		fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.Go, fp.Commit, fp.Source, fp.CalibNs)
	if steal, ok := rep.detail["steal_share"].(float64); ok {
		late := rep.detail["generator_lateness_ms"].(summary)
		fmt.Printf("host steal during the measured phases: %.1f%% of CPU time; generator lateness p50 %.4f ms, p%g %.4f ms\n",
			100*steal, late.P50, late.TailPct, late.Tail)
	}
	for _, name := range rep.names {
		m := rep.metrics[name]
		fmt.Printf("  %-28s %14.4f %-6s %s\n", name, m.Value, m.Unit, rep.notes[name])
	}
	if layers, ok := rep.detail["layers"].([]layerTime); ok {
		fmt.Println("self time per span name (spans in .bench_build/results):")
		for _, lt := range layers {
			fmt.Printf("  %-28s %6d spans %10.3f ms self of %10.3f ms, self p50 %.3f us\n",
				lt.Name, lt.Spans, lt.SelfMs, lt.TotalMs, lt.SelfP50Us)
		}
	}
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	gated := map[string]metric{}
	for name, m := range rep.metrics {
		if !rep.ungated[name] {
			gated[name] = m
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, max(rep.attempted, 1), rep.failed, gated})
	fmt.Println(string(line))
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
