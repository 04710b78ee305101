// options.go — the per-call options API.
//
// Every engine knob used to be reachable only through a pair of
// setters: an instance method (SetWorkers, SetCostPlanner, SetFrontier,
// SetSharding) and a process-wide default (SetDefaultWorkers, …) that
// drivers toggled before constructing instances they did not own.  The
// process-wide globals compose badly — two callers in one process fight
// over them, and tests must carefully restore them — so the Options
// struct carries the same knobs per call instead: it is accepted by
// NewWith here and threaded by the higher layers (core.EvalOpts,
// semantics.StratifiedOpts, incr.NewWith, server.Config) down to every
// Instance they construct.  The zero Options follows the process-wide
// defaults, so the old setters keep working as deprecated wrappers.
//
// There are four knobs, and none of them picks a different semi-naive
// round: Workers sizes the pool, Sharding splits tasks across it,
// Planner and Frontier each select between the production path and the
// oracle it is tested against (syntactic literal order, derive+Diff).
package engine

import (
	"repro/internal/ast"
	"repro/internal/relation"
)

// Toggle is a tri-state option value: follow the process-wide default,
// or force a feature on or off for this call.  The zero value is
// ToggleDefault, so zero Options change nothing.
type Toggle int8

const (
	// ToggleDefault follows the process-wide default (the SetDefault*
	// value, else the feature's built-in default).
	ToggleDefault Toggle = iota
	// On forces the feature on for this call.
	On
	// Off forces the feature off for this call.
	Off
)

// ToggleOf converts a boolean into a forced Toggle.
func ToggleOf(on bool) Toggle {
	if on {
		return On
	}
	return Off
}

// Enabled resolves the toggle against a fallback used when the toggle
// is ToggleDefault.
func (t Toggle) Enabled(fallback bool) bool {
	switch t {
	case On:
		return true
	case Off:
		return false
	}
	return fallback
}

// Options configures one engine instance (and, threaded through the
// higher layers, one evaluation, query, maintainer, or server).  The
// zero value follows the process-wide defaults, so existing call sites
// and the deprecated SetDefault* globals behave exactly as before.
type Options struct {
	// Workers is the Θ evaluation worker-pool size; 0 follows the
	// process default (SetDefaultWorkers, else GOMAXPROCS).
	Workers int
	// Planner selects cost-based join planning (Off = syntactic
	// literal order, the ablation baseline).
	Planner Toggle
	// Frontier selects fused dedup-at-emit derivation (Off = the
	// derive+Diff oracle pipeline).
	Frontier Toggle
	// Sharding allows intra-rule data-parallel sharding when a round
	// has fewer rule tasks than workers.
	Sharding Toggle
}

// apply configures in with the non-default options.
func (o Options) apply(in *Instance) {
	if o.Workers > 0 {
		in.SetWorkers(o.Workers)
	}
	if o.Planner != ToggleDefault {
		in.planner = o.Planner
	}
	if o.Frontier != ToggleDefault {
		in.frontier = o.Frontier
	}
	if o.Sharding != ToggleDefault {
		in.sharding = o.Sharding
	}
}

// NewWith is New with per-instance options applied: the one constructor
// every option-threading layer funnels into.
func NewWith(prog *ast.Program, db *relation.Database, o Options) (*Instance, error) {
	in, err := New(prog, db)
	if err != nil {
		return nil, err
	}
	o.apply(in)
	return in, nil
}
