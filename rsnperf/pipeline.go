package main

import (
	"fmt"
	"strings"

	"repro/internal/hybrid"
	"repro/internal/icl"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/pure"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// pairOutcome is the result of securing one (network, spec) pair.
type pairOutcome struct {
	insecureLogic bool
	noViolation   bool
	violating     int
	pure, hybrid  int
}

// digest is a workload's result counts, pinned per round.
type digest struct {
	Runs, SkippedInsecure, SkippedNoViolation int
	Violating, Pure, Hybrid                   int
}

func (d *digest) add(o pairOutcome) {
	switch {
	case o.insecureLogic:
		d.SkippedInsecure++
	case o.noViolation:
		d.SkippedNoViolation++
	default:
		d.Runs++
		d.Violating += o.violating
		d.Pure += o.pure
		d.Hybrid += o.hybrid
	}
}

// addCounts adds the counts of one run report row.
func (d *digest) addCounts(c resultCounts) {
	d.Runs += c.Runs
	d.SkippedInsecure += c.SkippedInsecureLogic
	d.Violating += int(c.Violating)
	d.Pure += int(c.Pure)
	d.Hybrid += int(c.Hybrid)
}

func (d digest) String() string {
	return fmt.Sprintf("runs=%d skipped_insecure=%d skipped_no_violation=%d violating=%d pure=%d hybrid=%d",
		d.Runs, d.SkippedInsecure, d.SkippedNoViolation, d.Violating, d.Pure, d.Hybrid)
}

// securePair runs the paper's pipeline after the dependency analysis on
// nw (mutating it into a secure network), one span per layer call, in
// the order of core.Secure: violation census and insecure-logic check,
// pure resolution, hybrid resolution, and the final no-violation check.
// A pair with insecure logic or no violation is skipped, as in the
// Table I protocol.
func securePair(rc *roundCtx, op int64, parent *obs.Span, an *hybrid.Analysis, nw *rsn.Network) (pairOutcome, error) {
	var out pairOutcome
	rc.call(parent, "hybrid.census", op, func(*obs.Span) {
		if len(an.InsecureModulePairs()) > 0 {
			out.insecureLogic = true
			return
		}
		out.violating = len(an.ViolatingRegisters(nw))
		out.noViolation = out.violating == 0
	})
	if out.insecureLogic || out.noViolation {
		return out, nil
	}
	var err error
	var pres *pure.Result
	rc.call(parent, "pure.resolve", op, func(*obs.Span) { pres, err = pure.Resolve(nw, an.Spec) })
	if err != nil {
		return out, fmt.Errorf("pure stage: %w", err)
	}
	out.pure = len(pres.Changes)
	var hres *hybrid.Result
	rc.call(parent, "hybrid.resolve", op, func(sp *obs.Span) {
		hres, err = hybrid.Resolve(an.WithEngine(rc.engine(sp)), nw)
	})
	if err != nil {
		return out, fmt.Errorf("hybrid stage: %w", err)
	}
	out.hybrid = len(hres.Changes)
	rc.count("hybrid.changes", float64(out.hybrid))
	rc.call(parent, "hybrid.census", op, func(*obs.Span) {
		if err = nw.Validate(); err != nil {
			return
		}
		if v := an.Violations(nw); len(v) != 0 {
			err = fmt.Errorf("%d violations remain", len(v))
		}
	})
	return out, err
}

// countEngine folds a traced round's engine and dependency counters
// into the round's per-layer counts.
func countEngine(rc *roundCtx, an *hybrid.Analysis) {
	if !rc.traced() {
		return
	}
	rc.count("dep.closure_deps", float64(an.DepStats.DepsMultiCycle))
	rc.count("dep.sat_queries", float64(an.DepStats.SATCalls))
	rc.count("dep.sim_resolved", float64(an.DepStats.SimResolved))
}

// countResolve reads the traced round's resolve and propagation
// counters from the engine stats.
func countResolve(rc *roundCtx) {
	if !rc.traced() {
		return
	}
	rc.count("hybrid.candidates", float64(rc.stats.Stage("resolve").Items()))
	rc.count("hybrid.propagate_items", float64(rc.stats.Stage("propagate").Queries()+rc.stats.Stage("propagate-delta").Queries()))
}

// parsedICL is a parsed ICL network with its embedded specification
// and the circuit its instrument links resolve against.
type parsedICL struct {
	nw      *rsn.Network
	spec    *secspec.Spec
	circuit *netlist.Netlist
}

// parseICL parses an ICL network with an embedded specification.
// Without a .bench circuit, every instrument link gets a fresh circuit
// flip-flop of the module its name is prefixed with, as rsnserved does
// for ICL-only submissions.
func parseICL(src string) (*parsedICL, error) {
	var names []string
	byName := map[string]netlist.FFID{}
	lookup := func(name string) (netlist.FFID, bool) {
		if id, ok := byName[name]; ok {
			return id, true
		}
		byName[name] = netlist.FFID(len(names))
		names = append(names, name)
		return byName[name], true
	}
	nw, spec, err := icl.ParseNetworkAndSpec(src, lookup)
	if err != nil {
		return nil, err
	}
	if spec == nil {
		return nil, fmt.Errorf("icl: no embedded security specification")
	}
	circuit := netlist.New()
	for _, m := range nw.Modules {
		circuit.AddModule(m)
	}
	for _, name := range names {
		mod := 0
		for mi, mn := range nw.Modules {
			if strings.HasPrefix(name, mn+".") {
				mod = mi
				break
			}
		}
		f := circuit.AddFF(name, mod)
		circuit.SetFFInput(f, circuit.FFs[f].Node)
	}
	return &parsedICL{nw: nw, spec: spec, circuit: circuit}, nil
}
