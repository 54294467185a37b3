// Package dep computes the fine-granular data dependencies over circuit
// logic that drive the secure-data-flow method (Section III-A of the
// paper, based on the SAT-based dependency computation of Soeken et al.,
// HVC 2016).
//
// Dependencies are classified on the three-valued lattice
// none < structural < path:
//
//   - a flip-flop b is 1-cycle functionally dependent on a if data can
//     actually propagate from a to b in one cycle (SAT on the cofactor
//     miter of b's next-state cone);
//   - b is only structurally dependent on a if a feeds b's next-state
//     cone but no value change can propagate (e.g. masked by a
//     reconvergence);
//   - b is path-dependent on a if a chain of 1-cycle functional
//     dependencies leads from a to b (multi-cycle closure).
//
// Two feasibility subroutines of the paper are implemented here:
// bridging over internal flip-flops (eliminating flip-flops not
// connected to the scan infrastructure before the cubic multi-cycle
// closure) and, for the scan-register chains themselves, presetting
// (handled by the hybrid analysis when composing the combined graph).
package dep

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Kind is a dependency classification.
type Kind uint8

// Dependency kinds, ordered none < structural < path.
const (
	None Kind = iota
	Structural
	Path
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Structural:
		return "structural"
	case Path:
		return "path"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Combine composes two dependencies along a path: the result is Path
// only if both links are Path, None if either is None, and Structural
// otherwise.
func Combine(a, b Kind) Kind {
	if a == None || b == None {
		return None
	}
	if a == Path && b == Path {
		return Path
	}
	return Structural
}

// Mode selects how 1-cycle dependencies are classified.
type Mode uint8

const (
	// Exact distinguishes functional from only-structural dependencies
	// with SAT (the proposed method).
	Exact Mode = iota
	// StructuralApprox over-approximates path-dependency by structural
	// dependency (Section IV-C): no SAT calls, every structural
	// dependency is treated as functional.
	StructuralApprox
)

func (m Mode) String() string {
	if m == Exact {
		return "exact"
	}
	return "structural-approx"
}

// Stats reports the bookkeeping of one dependency computation.
type Stats struct {
	Mode             Mode
	SATCalls         int
	SimResolved      int   // 1-cycle dependencies witnessed by simulation (no SAT call)
	SimLanes         int64 // 64-bit pattern lanes evaluated by the prefilter
	Functional1Cycle int   // 1-cycle dependencies classified functional
	StructOnly1Cycle int   // 1-cycle dependencies classified only structural
	FFsTotal         int   // flip-flops before bridging
	FFsDenoted       int   // flip-flops after bridging (denoted)
	DepsBeforeBridge int   // 1-cycle dependencies before bridging
	DepsAfterBridge  int   // dependencies after bridging, before closure
	DepsMultiCycle   int   // denoted dependencies after the closure
	ClosurePathDeps  int   // path entries after the closure
	BridgedFFs       int
}

// oneCycleEntry is one classified 1-cycle dependency of a root row.
type oneCycleEntry struct {
	leaf netlist.FFID
	kind Kind
}

// oneCycleRow is the result of one root's unit of work, merged into the
// entry list by the calling goroutine in row order.
type oneCycleRow struct {
	entries                          []oneCycleEntry
	satCalls, functional, structOnly int
	simResolved                      int
	simLanes                         int64
	decisions, conflicts             int64
}

// OneCycleConfig tunes the exact-mode 1-cycle computation.
type OneCycleConfig struct {
	// DisableSimFilter turns off the bit-parallel random-simulation
	// prefilter, forcing every exact-mode classification through a SAT
	// cofactor query (the pre-prefilter behavior; the differential
	// tests compare both paths).
	DisableSimFilter bool
	// SimRounds is the number of 64-pattern simulation rounds per root;
	// zero selects the default.
	SimRounds int
}

// FillOneCycleOpts is FillOneCycleCfg with the default 1-cycle tuning
// (simulation prefilter enabled).
func FillOneCycleOpts(g *Edges, n *netlist.Netlist, mode Mode, stats *Stats, opts engine.Options) error {
	return FillOneCycleCfg(g, n, mode, stats, opts, OneCycleConfig{})
}

// FillOneCycleCfg adds the circuit's 1-cycle dependencies to an entry
// list whose indices 0..NumFFs-1 are the circuit flip-flops. The list
// may be larger than the circuit (a combined index space with scan
// flip-flops appended, as the hybrid analysis builds). In Exact mode
// every structural dependency is classified with a SAT cofactor query;
// in StructuralApprox mode structural implies path. The
// per-root units of work — extract the root's fan-in cone once, run the
// bit-parallel simulation prefilter over its support leaves, encode the
// shared miter copy once for whatever the prefilter could not witness,
// classify those leaves through an incremental ConeQuerier — fan out
// over a worker pool of opts.WorkerCount() goroutines. Rows are merged
// into the list in root order on the calling goroutine, so exact-mode
// results are bit-identical to the sequential computation, and Stats
// counters are folded without races. Cancellation is honored between
// SAT queries; on cancellation the list is left untouched and the
// context error is returned.
func FillOneCycleCfg(g *Edges, n *netlist.Netlist, mode Mode, stats *Stats, opts engine.Options, cfg OneCycleConfig) error {
	if g.N() < n.NumFFs() {
		panic("dep: entry list smaller than circuit")
	}
	stage := opts.Stage("one-cycle")
	defer stage.Start()()
	useSim := mode == Exact && !cfg.DisableSimFilter
	var simStage *engine.StageStats // nil-tolerant when stats are off
	if useSim {
		simStage = opts.Stage("sim-filter")
	}

	// The units of work: flip-flops with a driven next-state cone.
	var jobs []int
	for b := range n.FFs {
		if n.FFs[b].D != netlist.NoNode {
			jobs = append(jobs, b)
		}
	}
	if len(jobs) == 0 {
		return opts.Err()
	}
	workers := opts.WorkerCount()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	span := opts.StartSpan("one-cycle",
		obs.Int("roots", int64(len(jobs))), obs.Int("workers", int64(workers)))
	defer span.End()
	queryOpts := opts.WithParent(span)

	// Solver-level metrics: per-query SAT latency and cumulative
	// decision/conflict counts, live on the stats registry.
	reg := opts.Registry()
	satLatency := reg.Histogram("dep_sat_query_seconds")
	satQueries := reg.Counter("dep_sat_queries_total")
	satDecisions := reg.Counter("dep_sat_decisions_total")
	satConflicts := reg.Counter("dep_sat_conflicts_total")
	simResolved := reg.Counter("dep_sim_resolved_total")
	simLanes := reg.Counter("dep_sim_lanes_total")

	ctx := opts.Ctx()
	rows := make([]oneCycleRow, len(jobs))
	var next atomic.Int64
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= len(jobs) || cancelled.Load() {
					return
				}
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				b := jobs[idx]
				root := n.FFs[b].D
				row := &rows[idx]
				// One cone walk serves the support computation, the
				// simulation prefilter and (if needed) the miter encoding.
				gates, leaves := n.Cone(root)
				type supportLeaf struct {
					ff netlist.FFID
					li int // index into leaves
				}
				var support []supportLeaf
				for li, l := range leaves {
					if ff := n.FFOfNode(l); ff != netlist.NoFF {
						support = append(support, supportLeaf{ff, li})
					}
				}
				// One query span per root's cone — the high-frequency
				// level of the trace hierarchy, subject to sampling.
				qspan := queryOpts.StartSpan("query", obs.Int("root_ff", int64(b)))
				if mode == StructuralApprox {
					for _, sl := range support {
						row.entries = append(row.entries, oneCycleEntry{sl.ff, Path})
					}
					qspan.End()
					continue
				}
				// Bit-parallel prefilter: witnessed[li] means flipping
				// leaf li provably flips the root — functional without
				// a SAT call. Constants are never support leaves, so
				// every tested leaf has a live slot.
				var witnessed []bool
				if useSim && len(support) > 0 {
					simEnd := simStage.Start()
					if sc := newSimCone(n, root, gates, leaves); sc != nil {
						testIdx := make([]int, len(support))
						for k, sl := range support {
							testIdx[k] = sl.li
						}
						wit := sc.filter(cfg.SimRounds, testIdx)
						witnessed = make([]bool, len(leaves))
						for k, li := range testIdx {
							if wit[k] {
								witnessed[li] = true
								row.simResolved++
							}
						}
						row.simLanes = 64 * sc.evals
						simStage.AddQueries(int64(len(support)))
						simStage.AddItems(row.simLanes)
						simStage.AddSaved(int64(row.simResolved))
					}
					simEnd()
				}
				// Whatever the prefilter could not witness goes through
				// the exact cofactor miter; the querier (and its CNF
				// encoding) is only built if some leaf needs it.
				var q *ConeQuerier
				for _, sl := range support {
					if witnessed != nil && witnessed[sl.li] {
						row.functional++
						row.entries = append(row.entries, oneCycleEntry{sl.ff, Path})
						continue
					}
					if ctx.Err() != nil {
						cancelled.Store(true)
						qspan.End()
						return
					}
					if q == nil {
						// With the prefilter's witnesses in hand, only
						// the unwitnessed support leaves are ever
						// queried — the miter encoding collapses around
						// them (hard-shared leaves, single-copy gates).
						var queryable []bool
						if witnessed != nil {
							queryable = make([]bool, len(leaves))
							for _, s2 := range support {
								if !witnessed[s2.li] {
									queryable[s2.li] = true
								}
							}
						}
						q = newConeQuerierRestricted(n, root, gates, leaves, queryable)
					}
					row.satCalls++
					var functional bool
					if satLatency != nil {
						t0 := time.Now()
						functional = q.Depends(n.FFs[sl.ff].Node)
						satLatency.Observe(time.Since(t0).Seconds())
					} else {
						functional = q.Depends(n.FFs[sl.ff].Node)
					}
					// Per-query deltas, not solver-lifetime totals, so
					// span attributes and counters attribute conflicts
					// to the queries that caused them.
					d := q.QueryStats()
					row.decisions += d.Decisions
					row.conflicts += d.Conflicts
					if functional {
						row.functional++
						row.entries = append(row.entries, oneCycleEntry{sl.ff, Path})
					} else {
						row.structOnly++
						row.entries = append(row.entries, oneCycleEntry{sl.ff, Structural})
					}
				}
				satQueries.Add(int64(row.satCalls))
				satDecisions.Add(row.decisions)
				satConflicts.Add(row.conflicts)
				simResolved.Add(int64(row.simResolved))
				simLanes.Add(row.simLanes)
				qspan.SetAttrs(obs.Int("sat_queries", int64(row.satCalls)),
					obs.Int("sim_resolved", int64(row.simResolved)),
					obs.Int("decisions", row.decisions), obs.Int("conflicts", row.conflicts))
				qspan.End()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}

	// Deterministic row-ordered merge.
	satCalls, simSolved := 0, 0
	for idx, b := range jobs {
		row := &rows[idx]
		for _, e := range row.entries {
			g.Add(b, int(e.leaf), e.kind)
		}
		stats.SATCalls += row.satCalls
		stats.SimResolved += row.simResolved
		stats.SimLanes += row.simLanes
		stats.Functional1Cycle += row.functional
		stats.StructOnly1Cycle += row.structOnly
		satCalls += row.satCalls
		simSolved += row.simResolved
	}
	stage.AddQueries(int64(satCalls))
	span.SetAttrs(obs.Int("sat_queries", int64(satCalls)), obs.Int("sim_resolved", int64(simSolved)))
	opts.Logf("one-cycle: %d roots, %d SAT queries (%d sim-resolved) over %d workers",
		len(jobs), satCalls, simSolved, workers)
	return nil
}
