// Package hybrid implements the novel contribution of the paper:
// detection and resolution of security violations over hybrid scan
// paths — data paths that use both the reconfigurable scan
// infrastructure and the underlying circuit logic — at scan flip-flop
// granularity (Sections III-B to III-D).
//
// The analysis builds a combined dependency space over circuit
// flip-flops and scan flip-flops. Its fixed part — circuit 1-cycle
// dependencies, the preset register-chain dependencies, and the
// capture/update links — is computed once, with internal flip-flops
// bridged away, and reused across every structural change to the RSN
// (the paper's rationale for calculating dependencies "omitting the
// RSN"). Only the reconfigurable inter-register wiring is re-derived
// after each change. Security attributes are propagated
// omnidirectionally over the combined graph to a fixed point; the
// finitely many attribute values guarantee termination even on the
// cyclic flows hybrid paths create.
package hybrid

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// Analysis is the fixed-infrastructure dependency analysis of one
// circuit + scan register structure. It is valid across arbitrary
// re-wiring of the network's inter-register connections.
type Analysis struct {
	Circuit *netlist.Netlist
	Spec    *secspec.Spec
	Mode    dep.Mode

	// clo is the multi-cycle closure of the bridged 1-cycle dependencies
	// over the combined index space (circuit flip-flops first, then scan
	// flip-flops), stored per dependency component.
	clo *dep.Matrix
	// Denoted marks combined indices that survived bridging.
	Denoted []bool
	// DepStats carries the dependency computation bookkeeping.
	DepStats dep.Stats
	// PresetDeps counts dependencies preset for consecutive scan
	// flip-flops instead of being computed (Section III-A subroutine 1).
	PresetDeps int

	// pathIn and pathOut are the bridged 1-cycle path relation as sparse
	// rows over the denoted nodes, built once: row n of pathIn lists the
	// denoted nodes n path-depends on, row n of pathOut the denoted nodes
	// that path-depend on n, both ascending. Rows of bridged nodes are
	// empty. Propagation and the culprit search read these.
	pathIn, pathOut csr
	// headReg[n] is the register whose first scan flip-flop combined
	// index n is, or -1.
	headReg []int32
	// nDenoted counts the denoted combined indices.
	nDenoted int

	nCirc     int
	total     int
	regOffset []int // per register: first combined index of its scan FFs
	regLen    []int
	regModule []int
	// nodeModule maps every combined index to its module.
	nodeModule []int
	// eng is the engine configuration the analysis was built under;
	// propagation and resolution report their stats through it.
	eng engine.Options
	// cache holds the most recent wiring's attribute fixed point, the
	// seed for incremental re-propagation after candidate cut/reconnect
	// changes. It is a pointer so the shallow WithSpec copy shares no
	// mutable state by accident: WithSpec installs a fresh cache, since
	// attributes depend on the specification.
	cache *propCache
}

// propCache is the parent-network fixed point a delta propagation
// re-seeds from. nw is a private clone of the wiring the fixed point
// belongs to — callers mutate their networks freely without
// invalidating the comparison. The mutex makes the cache safe for the
// parallel candidate evaluation of Resolve.
type propCache struct {
	mu sync.Mutex
	nw *rsn.Network
	p  *propagation
}

// NewAnalysis computes the fixed part of the hybrid data-flow analysis
// under the default engine configuration (all CPUs, no cancellation).
func NewAnalysis(nw *rsn.Network, circuit *netlist.Netlist, internal []netlist.FFID, spec *secspec.Spec, mode dep.Mode) *Analysis {
	// The background context never cancels, so the error is always nil.
	a, _ := NewAnalysisOpts(nw, circuit, internal, spec, mode, engine.Options{})
	return a
}

// NewAnalysisOpts computes the fixed part of the hybrid data-flow
// analysis: circuit 1-cycle dependencies (SAT-classified in Exact mode,
// fanned out over the engine's worker pool), preset register chains,
// capture/update links, bridging over the internal flip-flops, and the
// multi-cycle closure. The edges are collected first and then split
// into dependency components, which bridging and the closure process
// independently over the engine's worker pool. Per-stage wall times and
// query counts are reported through opts.Stats; cancellation via
// opts.Context is honored between SAT queries, components and pipeline
// stages, returning the context error.
func NewAnalysisOpts(nw *rsn.Network, circuit *netlist.Netlist, internal []netlist.FFID, spec *secspec.Spec, mode dep.Mode, opts engine.Options) (*Analysis, error) {
	a := &Analysis{Circuit: circuit, Spec: spec, Mode: mode, eng: opts, cache: &propCache{}}
	a.nCirc = circuit.NumFFs()
	a.regOffset = make([]int, len(nw.Registers))
	a.regLen = make([]int, len(nw.Registers))
	a.regModule = make([]int, len(nw.Registers))
	idx := a.nCirc
	for r := range nw.Registers {
		a.regOffset[r] = idx
		a.regLen[r] = nw.Registers[r].Len
		a.regModule[r] = nw.Registers[r].Module
		idx += nw.Registers[r].Len
	}
	a.total = idx
	a.nodeModule = make([]int, a.total)
	for f := 0; f < a.nCirc; f++ {
		a.nodeModule[f] = circuit.FFs[f].Module
	}
	for r := range nw.Registers {
		for i := 0; i < a.regLen[r]; i++ {
			a.nodeModule[a.regOffset[r]+i] = a.regModule[r]
		}
	}

	a.DepStats.Mode = mode
	a.DepStats.FFsTotal = a.total
	g := dep.NewEdges(a.total)
	if err := dep.FillOneCycleOpts(g, circuit, mode, &a.DepStats, opts); err != nil {
		return nil, err
	}

	// Preset the dependencies of consecutive flip-flops inside each
	// scan register: the latter path-depends on every former one.
	for r := range nw.Registers {
		for j := 1; j < a.regLen[r]; j++ {
			for i := 0; i < j; i++ {
				g.Add(a.regOffset[r]+j, a.regOffset[r]+i, dep.Path)
				a.PresetDeps++
			}
		}
	}
	// Capture and update links couple scan and circuit flip-flops.
	for r := range nw.Registers {
		reg := &nw.Registers[r]
		for i := 0; i < reg.Len; i++ {
			if c := reg.Capture[i]; c != netlist.NoFF {
				g.Add(a.regOffset[r]+i, int(c), dep.Path)
			}
			if f := reg.Update[i]; f != netlist.NoFF {
				g.Add(int(f), a.regOffset[r]+i, dep.Path)
			}
		}
	}
	m := g.Split()
	a.DepStats.DepsBeforeBridge = m.CountDeps()
	if err := opts.Err(); err != nil {
		return nil, err
	}

	bridgeDone := opts.Stage("bridge").Start()
	bridgeSpan := opts.StartSpan("bridge", obs.Int("internal_ffs", int64(len(internal))),
		obs.Int("deps_before", int64(a.DepStats.DepsBeforeBridge)))
	err := dep.BridgeOpts(m, internal, opts)
	bridgeSpan.End()
	bridgeDone()
	if err != nil {
		return nil, err
	}
	a.DepStats.BridgedFFs = len(internal)
	a.DepStats.FFsDenoted = a.total - len(internal)
	a.DepStats.DepsAfterBridge = m.CountDeps()
	opts.Logf("bridge: %d internal FFs eliminated, %d -> %d deps",
		len(internal), a.DepStats.DepsBeforeBridge, a.DepStats.DepsAfterBridge)
	if err := opts.Err(); err != nil {
		return nil, err
	}

	a.Denoted = make([]bool, a.total)
	for i := range a.Denoted {
		a.Denoted[i] = true
	}
	for _, k := range internal {
		a.Denoted[k] = false
	}
	// The sparse views read the bridged relation, which the closure
	// then replaces in place.
	a.buildViews(m)

	closureDone := opts.Stage("closure").Start()
	if err := dep.ClosureOpts(m, opts); err != nil {
		return nil, err
	}
	closureDone()
	a.clo = m
	a.DepStats.DepsMultiCycle = m.CountDeps()
	a.DepStats.ClosurePathDeps = m.CountPath()
	opts.Logf("closure: %d multi-cycle deps (%d path)",
		a.DepStats.DepsMultiCycle, a.DepStats.ClosurePathDeps)
	if err := opts.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// csr is a compressed sparse row adjacency: row n is adj[off[n]:off[n+1]].
type csr struct {
	off, adj []int32
}

func (c *csr) row(n int) []int32 { return c.adj[c.off[n]:c.off[n+1]] }

// transpose returns the reverse adjacency of c over the same nodes.
// Rows come out ascending, since sources are visited in order.
func (c *csr) transpose() csr {
	n := len(c.off) - 1
	t := csr{off: make([]int32, n+1), adj: make([]int32, len(c.adj))}
	for _, u := range c.adj {
		t.off[u+1]++
	}
	for u := 0; u < n; u++ {
		t.off[u+1] += t.off[u]
	}
	next := slices.Clone(t.off[:n])
	for r := 0; r < n; r++ {
		for _, u := range c.row(r) {
			t.adj[next[u]] = int32(r)
			next[u]++
		}
	}
	return t
}

// buildViews derives the sparse path rows from the bridged matrix m and
// Denoted, and the per-node head register.
func (a *Analysis) buildViews(m *dep.Matrix) {
	a.nDenoted = 0
	for _, d := range a.Denoted {
		if d {
			a.nDenoted++
		}
	}
	in := csr{off: make([]int32, a.total+1)}
	for n := 0; n < a.total; n++ {
		if a.Denoted[n] {
			m.ForEachPath(n, func(u int) {
				if a.Denoted[u] {
					in.adj = append(in.adj, int32(u))
				}
			})
		}
		in.off[n+1] = int32(len(in.adj))
	}
	a.pathIn = in
	a.pathOut = in.transpose()
	a.headReg = make([]int32, a.total)
	for n := range a.headReg {
		a.headReg[n] = -1
	}
	for r, off := range a.regOffset {
		a.headReg[off] = int32(r)
	}
}

// WithSpec returns a shallow copy of the analysis evaluating a
// different security specification. The dependency matrices do not
// depend on the specification, so one analysis can be reused across
// many specs (the experimental protocol evaluates 16 specifications per
// generated circuit).
func (a *Analysis) WithSpec(spec *secspec.Spec) *Analysis {
	cp := *a
	cp.Spec = spec
	// Attributes depend on the specification: the copy must not reuse
	// (or share) the original's cached fixed point.
	cp.cache = &propCache{}
	return &cp
}

// Kind returns the multi-cycle dependency of combined index dst on src:
// Path when data can flow functionally from src to dst over the fixed
// infrastructure, Structural when only a structural chain connects them.
func (a *Analysis) Kind(dst, src int) dep.Kind { return a.clo.Kind(dst, src) }

// Total returns the size of the combined index space.
func (a *Analysis) Total() int { return a.total }

// NumCircuitFFs returns the number of circuit flip-flop indices.
func (a *Analysis) NumCircuitFFs() int { return a.nCirc }

// ScanIndex returns the combined index of scan flip-flop bit of
// register reg.
func (a *Analysis) ScanIndex(reg, bit int) int { return a.regOffset[reg] + bit }

// NodeModule returns the module of a combined index.
func (a *Analysis) NodeModule(n int) int { return a.nodeModule[n] }

// IsScanNode reports whether the combined index is a scan flip-flop,
// and if so of which register and bit.
func (a *Analysis) IsScanNode(n int) (reg, bit int, ok bool) {
	if n < a.nCirc {
		return 0, 0, false
	}
	// regOffset ascending: binary search for the register.
	r := sort.Search(len(a.regOffset), func(i int) bool { return a.regOffset[i] > n }) - 1
	return r, n - a.regOffset[r], true
}

// NodeName renders a combined index for diagnostics.
func (a *Analysis) NodeName(n int) string {
	if r, b, ok := a.IsScanNode(n); ok {
		return fmt.Sprintf("R%d.SF%d", r, b)
	}
	return fmt.Sprintf("ff:%s", a.Circuit.FFs[n].Name)
}

// InsecurePair is a fixed-infrastructure data flow that violates the
// specification independently of the reconfigurable scan wiring.
type InsecurePair struct {
	Src, Dst int // combined indices; data flows Src -> Dst
}

// InsecureLogic returns the security violations that exist over the
// fixed infrastructure alone (circuit logic, register chains and
// capture/update links) — violations that no re-wiring of the RSN can
// resolve and that require a redesign of the circuit (Section III-B).
// Pairs are sorted by (Src, Dst) so every run — parallel or not —
// reports them byte-identically.
func (a *Analysis) InsecureLogic() []InsecurePair {
	var out []InsecurePair
	for i := 0; i < a.total; i++ {
		if !a.Denoted[i] {
			continue
		}
		mi := a.nodeModule[i]
		a.clo.ForEachPath(i, func(j int) {
			if !a.Denoted[j] {
				return
			}
			if a.Spec.Violates(a.nodeModule[j], mi) {
				out = append(out, InsecurePair{Src: j, Dst: i})
			}
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// InsecureModulePairs deduplicates InsecureLogic to module pairs.
func (a *Analysis) InsecureModulePairs() [][2]int {
	seen := map[[2]int]bool{}
	var out [][2]int
	for _, p := range a.InsecureLogic() {
		mp := [2]int{a.nodeModule[p.Src], a.nodeModule[p.Dst]}
		if !seen[mp] {
			seen[mp] = true
			out = append(out, mp)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Violation is a detected security violation: confidential data flows
// functionally into node Node (a scan flip-flop or a denoted circuit
// flip-flop) whose module may not hold it.
type Violation struct {
	Node int
	// Missing is the trust category of Node's module, absent from the
	// arriving attribute.
	Missing secspec.Category
}

// propagation holds the fixed-point attribute state for one wiring.
type propagation struct {
	attrIn  []secspec.CatSet
	attrOut []secspec.CatSet
}

// lastIndex returns the combined index of the last scan flip-flop of a
// register.
func (a *Analysis) lastIndex(reg int) int { return a.regOffset[reg] + a.regLen[reg] - 1 }

// active reports whether a propagation node carries attributes: mux
// pseudo-nodes always do, combined indices only when denoted.
func (a *Analysis) active(n int) bool { return n >= a.total || a.Denoted[n] }

// srcIdx maps a wiring source reference to its propagation node, or -1
// for the scan-in port (no constraint). Mux m is the transparent
// pseudo-node a.total+m.
func (a *Analysis) srcIdx(ref rsn.Ref) int {
	switch ref.Kind {
	case rsn.KRegister:
		return a.lastIndex(int(ref.ID))
	case rsn.KMux:
		return a.total + int(ref.ID)
	}
	return -1
}

// buildWiring derives the reverse wiring adjacency of the network's
// current inter-register connections into wdep, reusing its row
// buffers: node -> nodes to re-evaluate when its out-attribute
// changes. The fixed Base edges are not included — they are read from
// pathOut.
func (a *Analysis) buildWiring(nw *rsn.Network, wdep [][]int32) [][]int32 {
	wdep = grow(wdep, a.total+len(nw.Muxes))
	for i := range wdep {
		wdep[i] = wdep[i][:0]
	}
	addDep := func(src rsn.Ref, sink int) {
		if s := a.srcIdx(src); s >= 0 {
			wdep[s] = append(wdep[s], int32(sink))
		}
	}
	for r := range nw.Registers {
		addDep(nw.Registers[r].In, a.regOffset[r])
	}
	for m := range nw.Muxes {
		for _, in := range nw.Muxes[m].Inputs {
			addDep(in, a.total+m)
		}
	}
	return wdep
}

// grow returns buf resliced to length n, reallocating when n exceeds
// its capacity. A reallocation keeps every element up to the old
// capacity, so values parked beyond the length survive.
func grow[T any](buf []T, n int) []T {
	if n > cap(buf) {
		nb := make([]T, n, n+n/8+8)
		copy(nb, buf[:cap(buf)])
		return nb
	}
	return buf[:n]
}

// scratch is one worker's reusable state for propagation runs: the
// working attributes, the worklist and its membership marks, the
// wiring adjacency and the trial network candidates are built in. One
// scratch serves one goroutine at a time.
type scratch struct {
	// p holds the attributes of the last propagateDelta run. Outside
	// that run's dirty cone they equal base's, which is what lets the
	// next run against the same base undo only the cone.
	p    propagation
	base *propagation
	// cone is the last run's dirty cone in discovery order.
	cone  []int32
	queue []int32
	// inQueue is all false between runs: the worklist drains it.
	inQueue []bool
	wdep    [][]int32
	trial   rsn.Network
	// slab records the dirty-cone attributes of every candidate scored
	// in the current change, so the winner's fixed point is rebuilt
	// without propagating it again.
	slab []coneAttr
}

// coneAttr is one node's attributes inside a trial's dirty cone.
type coneAttr struct {
	node    int32
	in, out secspec.CatSet
}

// runWorklist drives the monotone-decreasing attribute iteration to its
// fixed point from the seed queue in s.queue, re-evaluating nodes whose
// inputs changed, over s.wdep (nw's wiring adjacency) and Base's
// sparse rows. Every queued node must be marked in s.inQueue; the marks
// are all clear again on return. The queue is consumed through a head
// index and compacted in place once the dead prefix dominates. It
// returns the number of node evaluations.
func (a *Analysis) runWorklist(nw *rsn.Network, s *scratch, p *propagation) int64 {
	all := secspec.AllCats(a.Spec.NumCategories)
	queue, inQueue := s.queue, s.inQueue
	evals := int64(0)
	head := 0
	for head < len(queue) {
		if head >= 1024 && head*2 >= len(queue) {
			queue = queue[:copy(queue, queue[head:])]
			head = 0
		}
		n := int(queue[head])
		head++
		inQueue[n] = false
		evals++

		in := all
		var out secspec.CatSet
		if n >= a.total {
			// Transparent mux node: intersection of its inputs.
			for _, ref := range nw.Muxes[n-a.total].Inputs {
				if src := a.srcIdx(ref); src >= 0 {
					in &= p.attrOut[src]
				}
			}
			out = in
		} else {
			for _, u := range a.pathIn.row(n) {
				in &= p.attrOut[u]
			}
			if r := a.headReg[n]; r >= 0 {
				if src := a.srcIdx(nw.Registers[r].In); src >= 0 {
					in &= p.attrOut[src]
				}
			}
			out = in & a.Spec.Accepts[a.nodeModule[n]]
		}
		p.attrIn[n] = in
		if out == p.attrOut[n] {
			continue
		}
		p.attrOut[n] = out
		// Re-evaluate everything fed by n.
		if n < a.total {
			for _, d := range a.pathOut.row(n) {
				if !inQueue[d] {
					inQueue[d] = true
					queue = append(queue, d)
				}
			}
		}
		for _, d := range s.wdep[n] {
			if !inQueue[d] && a.active(int(d)) {
				inQueue[d] = true
				queue = append(queue, d)
			}
		}
	}
	s.queue = queue[:0]
	return evals
}

// propagate computes the omnidirectional fixed point of security
// attributes over the combined graph from scratch: fixed Base edges
// plus the network's current inter-register wiring. Scan multiplexers
// are transparent pseudo-nodes (indices a.total..a.total+muxes-1) so
// the wiring contributes O(edges) work instead of flattening mux
// chains. All active nodes start at top and seed the worklist; the
// finite attribute lattice guarantees convergence to the greatest fixed
// point, which is unique — the reference point the incremental
// propagateDelta must reproduce exactly.
func (a *Analysis) propagate(nw *rsn.Network) *propagation {
	stage := a.eng.Stage("propagate")
	defer stage.Start()()
	span := a.eng.StartSpan("propagate")
	defer span.End()
	all := secspec.AllCats(a.Spec.NumCategories)
	size := a.total + len(nw.Muxes)
	p := &propagation{
		attrIn:  make([]secspec.CatSet, size),
		attrOut: make([]secspec.CatSet, size),
	}
	for i := 0; i < a.total; i++ {
		p.attrIn[i] = all
		p.attrOut[i] = all & a.Spec.Accepts[a.nodeModule[i]]
	}
	for i := a.total; i < size; i++ {
		p.attrIn[i] = all
		p.attrOut[i] = all
	}
	s := &scratch{
		inQueue: make([]bool, size),
		queue:   make([]int32, 0, size),
	}
	s.wdep = a.buildWiring(nw, nil)
	for n := 0; n < size; n++ {
		if a.active(n) {
			s.queue = append(s.queue, int32(n))
			s.inQueue[n] = true
		}
	}
	evals := a.runWorklist(nw, s, p)
	stage.AddQueries(evals)
	return p
}

// propagateDelta computes the fixed point of nw's wiring by re-seeding
// from the parent network's fixed point instead of from scratch. The
// result lives in s: s.p holds the attributes (valid until s's next
// run, which is also what the returned pointer refers to) and s.cone
// the dirty cone, the only nodes whose attributes may differ from
// parent's.
//
// The invariant making this exact: a node is dirty when its evaluation
// equation changed (its register input or mux input list differs
// between the two wirings, or it is a new mux), or when a dirty node
// feeds it — the dirty set is the forward closure of the changed-wiring
// seeds over nw's dependency edges. Every clean node therefore has the
// same equation in both wirings and only clean sources, so the clean
// region is a backward-closed subsystem identical in both networks, and
// the greatest fixed point — unique on the finite attribute lattice —
// restricted to it coincides with the parent's. Resetting the dirty
// cone to top and re-running the monotone worklist from the dirty seeds
// then reconstructs exactly the full propagation's fixed point
// (TestIncrementalPropagateMatchesFull checks this differentially on
// every candidate change of catalog benchmarks).
func (a *Analysis) propagateDelta(s *scratch, parent *propagation, parentNW, nw *rsn.Network) *propagation {
	stage := a.eng.Stage("propagate-delta")
	defer stage.Start()()
	// A high-frequency trace span (one per candidate trial); sample it
	// via the tracer (SampleEvery("propagate-delta", n)) on large runs.
	span := a.eng.StartSpan("propagate-delta")
	defer span.End()
	all := secspec.AllCats(a.Spec.NumCategories)
	nMux := len(nw.Muxes)
	size := a.total + nMux
	pMux := len(parentNW.Muxes)

	// Bring s.p back to parent's attributes: undo the previous run's
	// cone when it ran against the same parent, else copy it whole.
	// Nodes past parent's end are new muxes, which always seed below.
	if s.base == parent {
		for _, n := range s.cone {
			if int(n) < len(parent.attrIn) {
				s.p.attrIn[n] = parent.attrIn[n]
				s.p.attrOut[n] = parent.attrOut[n]
			}
		}
	} else {
		s.p.attrIn = append(s.p.attrIn[:0], parent.attrIn...)
		s.p.attrOut = append(s.p.attrOut[:0], parent.attrOut...)
		s.base = parent
	}
	s.p.attrIn = grow(s.p.attrIn, size)
	s.p.attrOut = grow(s.p.attrOut, size)
	s.inQueue = grow(s.inQueue, size)

	// Seeds: nodes whose evaluation equation changed between the two
	// wirings. Base edges are fixed infrastructure and never change;
	// the scan-out source is not a propagation node.
	cone := s.cone[:0]
	seed := func(n int32) {
		if a.active(int(n)) && !s.inQueue[n] {
			s.inQueue[n] = true
			cone = append(cone, n)
		}
	}
	for r := range nw.Registers {
		if nw.Registers[r].In != parentNW.Registers[r].In {
			seed(int32(a.regOffset[r]))
		}
	}
	for m := 0; m < nMux; m++ {
		if m >= pMux || !refsEqual(nw.Muxes[m].Inputs, parentNW.Muxes[m].Inputs) {
			seed(int32(a.total + m))
		}
	}

	// Dirty cone: forward closure of the seeds over nw's edges.
	s.wdep = a.buildWiring(nw, s.wdep)
	for head := 0; head < len(cone); head++ {
		n := int(cone[head])
		if n < a.total {
			for _, d := range a.pathOut.row(n) {
				seed(d)
			}
		}
		for _, d := range s.wdep[n] {
			seed(d)
		}
	}
	// Reset the cone to top and re-run the worklist from it.
	for _, n := range cone {
		s.p.attrIn[n] = all
		if int(n) >= a.total {
			s.p.attrOut[n] = all
		} else {
			s.p.attrOut[n] = all & a.Spec.Accepts[a.nodeModule[n]]
		}
	}
	s.cone = cone
	s.queue = append(s.queue[:0], cone...)
	dirty := len(cone)
	evals := a.runWorklist(nw, s, &s.p)
	stage.AddQueries(evals)
	stage.AddItems(int64(dirty))
	saved := a.nDenoted + nMux - dirty
	stage.AddSaved(int64(saved))
	span.SetAttrs(obs.Int("dirty", int64(dirty)), obs.Int("saved", int64(saved)),
		obs.Int("evals", evals))
	return &s.p
}

// refsEqual reports whether two wiring source lists are identical.
func refsEqual(x, y []rsn.Ref) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// propWiringEqual reports whether two networks have identical
// propagation-relevant wiring: register inputs and mux input lists.
// (The scan-out source does not feed any propagation node.)
func propWiringEqual(x, y *rsn.Network) bool {
	if len(x.Registers) != len(y.Registers) || len(x.Muxes) != len(y.Muxes) {
		return false
	}
	for r := range x.Registers {
		if x.Registers[r].In != y.Registers[r].In {
			return false
		}
	}
	for m := range x.Muxes {
		if !refsEqual(x.Muxes[m].Inputs, y.Muxes[m].Inputs) {
			return false
		}
	}
	return true
}

// fixedPoint returns the attribute fixed point of the network's current
// wiring, reusing the analysis's cached parent fixed point when
// possible: wiring-identical networks are answered from the cache
// outright, and otherwise only the dirty cone downstream of the wiring
// delta is re-propagated. Falls back to a full propagation when no
// parent is cached. The cache is updated to the returned fixed point
// (keyed by a private clone of the wiring), and all paths produce the
// identical unique greatest fixed point, so callers — including the
// parallel candidate evaluation — may race on the cache freely without
// affecting results.
func (a *Analysis) fixedPoint(nw *rsn.Network) *propagation {
	c := a.cache
	if c == nil {
		return a.propagate(nw)
	}
	c.mu.Lock()
	parent, parentNW := c.p, c.nw
	c.mu.Unlock()
	var p *propagation
	switch {
	// The register set is fixed infrastructure; a parent with a
	// different one is a foreign network the delta diff cannot relate.
	case parent == nil || len(parentNW.Registers) != len(nw.Registers):
		p = a.propagate(nw)
	case propWiringEqual(parentNW, nw):
		a.eng.Stage("propagate-delta").AddSaved(int64(a.nDenoted + len(nw.Muxes)))
		return parent
	default:
		d := a.propagateDelta(&scratch{}, parent, parentNW, nw)
		p = &propagation{attrIn: slices.Clone(d.attrIn), attrOut: slices.Clone(d.attrOut)}
	}
	snap := nw.Clone()
	c.mu.Lock()
	c.p, c.nw = p, snap
	c.mu.Unlock()
	return p
}

// Violations returns the security violations of the network's current
// wiring, sorted by combined index — a deterministic order regardless
// of the engine's worker configuration, so reports and -explain output
// are byte-identical across runs.
func (a *Analysis) Violations(nw *rsn.Network) []Violation {
	return a.violationsFrom(a.fixedPoint(nw))
}

// violationsFrom extracts the sorted violation list from an attribute
// fixed point.
func (a *Analysis) violationsFrom(p *propagation) []Violation {
	var out []Violation
	for n := 0; n < a.total; n++ {
		if !a.Denoted[n] {
			continue
		}
		trust := a.Spec.Trust[a.nodeModule[n]]
		if !p.attrIn[n].Has(trust) {
			out = append(out, Violation{Node: n, Missing: trust})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// ViolatingRegisters returns the registers containing at least one
// violating scan flip-flop, ascending.
func (a *Analysis) ViolatingRegisters(nw *rsn.Network) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range a.Violations(nw) {
		if r, _, ok := a.IsScanNode(v.Node); ok && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}
