// Command datalog evaluates a DATALOG¬ program on a fact file under a
// chosen semantics and prints the computed relations.
//
// Usage:
//
//	datalog -program tc.dl -facts graph.dl [-semantics inflationary] [-mode seminaive] [-stats] [-explain]
//	datalog -program tc.dl -facts graph.dl -query 's(a, ?)' [-magic=false]
//
// Semantics: inflationary (default, the paper's Section 4 proposal),
// lfp (positive/semipositive programs), stratified, wellfounded.
//
// With -query the program is not materialized: the query atom
// (constants bound, "?" free) is answered demand-driven by magic-set
// rewriting — only the tuples the query can reach are derived.
// -magic=false answers the same query from a full materialization
// instead (the oracle the magic path is tested against); -explain
// prints the rewrite report.  Point queries require lfp or stratified
// semantics (inflationary is accepted when it coincides with lfp).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/semantics"
)

func main() {
	var (
		programPath = flag.String("program", "", "path to the DATALOG¬ program")
		factsPath   = flag.String("facts", "", "path to the fact file")
		semName     = flag.String("semantics", "inflationary", "inflationary|lfp|stratified|wellfounded")
		modeName    = flag.String("mode", "seminaive", "seminaive|naive stage evaluation")
		stats       = flag.Bool("stats", false, "print evaluation statistics")
		workers     = flag.Int("workers", 0, "Θ evaluation worker-pool size (0 = GOMAXPROCS)")
		planner     = flag.Bool("planner", true, "cost-based join planning (false = syntactic literal order)")
		frontier    = flag.Bool("frontier", true, "fused dedup-at-emit derivation (false = derive+Diff baseline)")
		shard       = flag.Bool("shard", true, "intra-rule data-parallel sharding when rules < workers")
		explain     = flag.Bool("explain", false, "print per-rule evaluation plans at the computed fixpoint")
		query       = flag.String("query", "", "answer one query atom, e.g. 's(a, ?)' ('?' marks free positions)")
		magicOn     = flag.Bool("magic", true, "with -query: demand-driven magic-set evaluation (false = full materialization + filter)")
	)
	flag.Parse()
	engine.SetDefaultWorkers(*workers)
	engine.SetDefaultCostPlanner(*planner)
	engine.SetDefaultFrontier(*frontier)
	engine.SetDefaultSharding(*shard)
	if *programPath == "" || *factsPath == "" {
		fmt.Fprintln(os.Stderr, "usage: datalog -program FILE -facts FILE [-semantics NAME]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	prog, err := parser.ProgramFile(*programPath)
	if err != nil {
		fatal(err)
	}
	db, err := parser.FactsFile(*factsPath)
	if err != nil {
		fatal(err)
	}
	sem, err := core.ParseSemantics(*semName)
	if err != nil {
		fatal(err)
	}
	mode := semantics.SemiNaive
	switch *modeName {
	case "seminaive":
	case "naive":
		mode = semantics.Naive
	default:
		fatal(fmt.Errorf("unknown mode %q", *modeName))
	}

	if *query != "" {
		runQuery(prog, db, *query, sem, mode, *magicOn, *explain, *stats)
		return
	}

	res, err := core.Eval(prog, db, sem, mode)
	if err != nil {
		fatal(err)
	}
	if *explain {
		// Plans against the computed relations: the sizes (and hence
		// join orders) most evaluation rounds saw.  The instance is
		// built on a fresh clone, like core.Eval's own.
		in, err := engine.New(prog, db.Clone())
		if err != nil {
			fatal(err)
		}
		fmt.Println("% evaluation plans at the computed fixpoint:")
		in.Explain(os.Stdout, res.State)
	}
	fmt.Printf("%% class: %v, semantics: %v\n", res.Class, res.Semantics)
	for _, pred := range res.State.Preds() {
		fmt.Printf("%s/%d = %s\n", pred, res.State[pred].Arity(), res.State[pred].Format(res.Universe))
	}
	if res.WF != nil && !res.WF.Total() {
		fmt.Println("% undefined atoms (three-valued model):")
		und := res.WF.Undefined()
		for _, pred := range und.Preds() {
			if und[pred].Len() > 0 {
				fmt.Printf("%% undef %s = %s\n", pred, und[pred].Format(res.Universe))
			}
		}
	}
	if *stats {
		fmt.Printf("%% rounds=%d tuples=%d maxDelta=%d\n",
			res.Stats.Rounds, res.Stats.Tuples, res.Stats.MaxDeltaTuples)
	}
}

// runQuery answers one query atom, demand-driven or via the full
// materialization oracle.
func runQuery(prog *ast.Program, db *relation.Database, src string, sem core.Semantics, mode semantics.Mode, magicOn, explain, stats bool) {
	q, err := magic.ParseQuery(src)
	if err != nil {
		fatal(err)
	}
	// Validate the query against the program up front, so the full
	// oracle path rejects exactly what the magic path rejects.
	arities, err := prog.Validate()
	if err != nil {
		fatal(err)
	}
	ar, known := arities[q.Pred]
	if !known {
		fatal(fmt.Errorf("query predicate %s does not appear in the program", q.Pred))
	}
	if len(q.Args) != ar {
		fatal(fmt.Errorf("query %s has %d args, predicate has arity %d", q.Pred, len(q.Args), ar))
	}
	if _, ok := core.QueryStrategy(sem, prog.Classify()); !ok {
		fatal(fmt.Errorf("point queries require lfp, stratified, or coinciding inflationary semantics (program is %v; try -semantics stratified)", prog.Classify()))
	}

	start := time.Now()
	var res *semantics.QueryResult
	if magicOn {
		res, err = core.Query(prog, db, q, sem, mode)
		if err != nil {
			fatal(err)
		}
	} else {
		res, err = core.QueryFull(prog, db, q, sem, mode)
		if err != nil {
			fatal(err)
		}
	}
	dur := time.Since(start)

	if explain && res.Report != nil {
		fmt.Print("% rewrite report:\n")
		for _, line := range strings.Split(strings.TrimRight(res.Report.Format(), "\n"), "\n") {
			fmt.Printf("%%   %s\n", line)
		}
	}
	fmt.Printf("%% query %s (%s)\n", q, map[bool]string{true: "magic", false: "full"}[magicOn])
	fmt.Printf("%s = %s\n", q.Pred, res.Tuples.Format(res.Universe))
	if stats {
		fmt.Printf("%% matched=%d derived=%d rounds=%d in %v\n",
			res.Tuples.Len(), res.Stats.Tuples, res.Stats.Rounds, dur.Round(time.Microsecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datalog:", err)
	os.Exit(1)
}
