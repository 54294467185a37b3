// Package pure detects and resolves security violations over pure scan
// paths — paths that use only the scan infrastructure — implementing
// the method of Raiola et al. (IOLTS 2018) that the secure-data-flow
// paper applies as its first stage (Figure 2).
//
// Security attributes are propagated once, forward, from the scan-in
// port over every scan segment toward the scan-out port: the attribute
// arriving at a segment is the intersection of the accepted-category
// masks of everything upstream. A segment whose own trust category is
// missing from its incoming attribute sits on a configurable scan path
// downstream of data that must not traverse it — a violation. Found
// violations are resolved by cutting the offending connection and
// re-connecting the separated segments, choosing the lowest-cost
// candidate that keeps the network acyclic and every register
// accessible.
package pure

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// Propagation holds the forward-propagated security attributes of one
// network under one specification. Attributes live in flat per-element
// arrays keyed by the network's dense reference index — the resolve
// loop re-propagates once per candidate trial, where the former
// map-of-Ref representation dominated the allocation profile.
type Propagation struct {
	nw *rsn.Network
	// in and out hold the attribute (accepted-category mask) arriving
	// at and leaving each element, keyed by Network.RefIndex.
	in, out []secspec.CatSet
	// Violating lists the registers whose trust category is missing
	// from their incoming attribute, ascending.
	Violating []int
}

// In returns the attribute arriving at the element.
func (p *Propagation) In(r rsn.Ref) secspec.CatSet { return p.in[p.nw.RefIndex(r)] }

// Out returns the attribute leaving the element.
func (p *Propagation) Out(r rsn.Ref) secspec.CatSet { return p.out[p.nw.RefIndex(r)] }

// Propagate computes security attributes over all pure scan paths with
// a single forward traversal in topological order.
func Propagate(nw *rsn.Network, spec *secspec.Spec) *Propagation {
	p := &Propagation{}
	p.compute(nw, spec)
	return p
}

// compute fills p with nw's attributes, reusing p's buffers: the
// resolve loop scores every candidate trial through one Propagation.
func (p *Propagation) compute(nw *rsn.Network, spec *secspec.Spec) {
	all := secspec.AllCats(spec.NumCategories)
	n := nw.NumRefs()
	p.nw = nw
	if cap(p.in) < n {
		p.in = make([]secspec.CatSet, n)
		p.out = make([]secspec.CatSet, n)
	}
	// The topological order visits every element, so every slot below
	// n is overwritten.
	p.in, p.out = p.in[:n], p.out[:n]
	p.Violating = p.Violating[:0]
	// Source attributes are read through out[RefIndex(src)]; an invalid
	// source (an unconnected pin) contributes no constraint, matching a
	// missing input. The topological order guarantees sources are final
	// before their sinks are evaluated.
	srcOut := func(src rsn.Ref) secspec.CatSet {
		if src == rsn.NoRef || !src.IsValid() {
			return all
		}
		return p.out[nw.RefIndex(src)]
	}
	for _, r := range nw.ElementTopoOrder() {
		idx := nw.RefIndex(r)
		switch r.Kind {
		case rsn.KScanIn:
			p.in[idx] = all
			p.out[idx] = all
		case rsn.KRegister:
			reg := &nw.Registers[r.ID]
			in := srcOut(reg.In)
			p.in[idx] = in
			if !in.Has(spec.Trust[reg.Module]) {
				p.Violating = append(p.Violating, int(r.ID))
			}
			p.out[idx] = in & spec.Accepts[reg.Module]
		case rsn.KMux:
			in := all
			for _, src := range nw.Muxes[r.ID].Inputs {
				in &= srcOut(src)
			}
			p.in[idx] = in
			p.out[idx] = in
		case rsn.KScanOut:
			in := srcOut(nw.OutSrc)
			p.in[idx] = in
			p.out[idx] = in
		}
	}
	sort.Ints(p.Violating)
}

// ViolatingRegisters returns the registers with a pure-path violation,
// ascending.
func ViolatingRegisters(nw *rsn.Network, spec *secspec.Spec) []int {
	return Propagate(nw, spec).Violating
}

// FindCulprit returns a register upstream of y whose data must not
// traverse y, if any.
func FindCulprit(nw *rsn.Network, spec *secspec.Spec, y int) (int, bool) {
	ymod := nw.Registers[y].Module
	for _, x := range nw.PurePredecessors(y) {
		if spec.Violates(nw.Registers[x].Module, ymod) {
			return x, true
		}
	}
	return 0, false
}

// Change records one applied structural modification bundle.
type Change struct {
	// Cut is the input pin that was disconnected.
	Cut rsn.Sink
	// OldSrc is the source the pin was disconnected from.
	OldSrc rsn.Ref
	// NewSrc is the source the pin was re-connected to.
	NewSrc rsn.Ref
	// NewMuxes counts scan multiplexers inserted while re-attaching
	// separated segments.
	NewMuxes int
	// Violation is the (source register, violating register) pair the
	// change resolved.
	Violation [2]int
}

// Cost is the structural cost of the change: one for the re-route plus
// one per inserted multiplexer, the metric minimized by the candidate
// selection.
func (c Change) Cost() int { return 1 + c.NewMuxes }

func (c Change) String() string {
	return fmt.Sprintf("cut %v<-%v, reconnect to %v (+%d mux)", c.Cut.Elem, c.OldSrc, c.NewSrc, c.NewMuxes)
}

// Result summarizes a resolution run.
type Result struct {
	Changes []Change
	// ViolatingBefore is the number of violating registers before any
	// change was applied.
	ViolatingBefore int
}

// maxRounds bounds the resolve loop; beyond it only the provably
// terminating scan-in fallback candidate is used.
func maxRounds(nw *rsn.Network) int { return 4*len(nw.Registers) + 16 }

// Resolve is ResolveOpts under the default engine configuration (no
// cancellation).
func Resolve(nw *rsn.Network, spec *secspec.Spec) (*Result, error) {
	return ResolveOpts(nw, spec, engine.Options{})
}

// ResolveOpts repeatedly finds and repairs pure-path violations until
// the network is pure-path secure. It mutates nw and returns the applied
// changes. The current wiring's attributes are propagated once per
// round and reused for candidate filtering and the before count —
// only candidate trials re-propagate, all in one reused trial. The
// engine context is checked once per round; on cancellation the changes
// applied so far are returned with the context error.
func ResolveOpts(nw *rsn.Network, spec *secspec.Spec, opts engine.Options) (*Result, error) {
	ctx := opts.Ctx()
	res := &Result{}
	var t trial
	first := true
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		p := Propagate(nw, spec)
		if first {
			res.ViolatingBefore = len(p.Violating)
			first = false
		}
		if len(p.Violating) == 0 {
			return res, nil
		}
		y := p.Violating[0]
		x, ok := FindCulprit(nw, spec, y)
		if !ok {
			return res, fmt.Errorf("pure: register R%d violates but no culprit found", y)
		}
		ch, err := resolveOne(&t, nw, spec, p, x, y, round >= maxRounds(nw))
		if err != nil {
			return res, err
		}
		res.Changes = append(res.Changes, ch)
	}
}

// trial is the reused candidate state of a resolve run: the network
// every candidate change is tried in (refilled from the current wiring
// by CopyInto) and its propagation.
type trial struct {
	nw rsn.Network
	p  Propagation
}

// resolveOne repairs the flow from register x into register y by
// cutting a connection on the way and re-connecting the separated
// segments. p is the current wiring's propagation. With fallbackOnly
// set, only the always-valid candidate (connect y to the scan-in port)
// is considered.
func resolveOne(t *trial, nw *rsn.Network, spec *secspec.Spec, p *Propagation, x, y int, fallbackOnly bool) (Change, error) {
	type candidate struct {
		pin    rsn.Sink
		newSrc rsn.Ref
	}
	pin := rsn.Sink{Elem: rsn.Reg(y), Idx: 0}
	oldSrc := nw.Registers[y].In

	var cands []candidate
	if !fallbackOnly {
		// Re-connecting y to a pure-path predecessor keeps y deep in the
		// network; acceptable when the predecessor's data is compatible.
		// The candidate count is capped: evaluating every predecessor of
		// a deep chain position costs a re-propagation each.
		const maxPredCandidates = 6
		preds := nw.PurePredecessors(y)
		ymod := nw.Registers[y].Module
		for _, pr := range preds {
			src := rsn.Reg(pr)
			if src == oldSrc {
				continue
			}
			if p.Out(src).Has(spec.Trust[ymod]) {
				cands = append(cands, candidate{pin, src})
				if len(cands) >= maxPredCandidates {
					break
				}
			}
		}
	}
	// The scan-in fallback is always valid and provably terminating.
	cands = append(cands, candidate{pin, rsn.ScanIn})

	before := len(p.Violating)
	type scored struct {
		c     candidate
		cost  int
		after int
		ok    bool
	}
	var results []scored
	for _, c := range cands {
		nw.CopyInto(&t.nw)
		muxes, err := t.nw.CutAndReconnect(c.pin, c.newSrc)
		if err != nil {
			continue
		}
		t.p.compute(&t.nw, spec)
		// The targeted violation must be gone and the overall number of
		// violating registers must not grow.
		if containsInt(t.p.Violating, y) && stillFlows(&t.nw, x, y) {
			continue
		}
		if len(t.p.Violating) > before {
			continue
		}
		results = append(results, scored{c, 1 + muxes, len(t.p.Violating), true})
	}
	// Structural validation is deferred to winner selection: candidates
	// rarely fail it, and discarding an invalid minimum one at a time
	// selects exactly the minimum-cost valid candidate. Only prospective
	// winners are re-built in the trial network to be validated.
	valid := func(c candidate) bool {
		nw.CopyInto(&t.nw)
		_, err := t.nw.CutAndReconnect(c.pin, c.newSrc)
		return err == nil && t.nw.Validate() == nil
	}
	var best *scored
	for {
		best = nil
		for i := range results {
			s := &results[i]
			if !s.ok {
				continue
			}
			if best == nil || s.cost < best.cost || (s.cost == best.cost && s.after < best.after) {
				best = s
			}
		}
		if best == nil || valid(best.c) {
			break
		}
		best.ok = false
	}
	if best == nil {
		// The fallback candidate cannot fail validation; reaching this
		// point indicates an internal inconsistency.
		return Change{}, fmt.Errorf("pure: no valid candidate to separate R%d from R%d", x, y)
	}
	muxes, err := nw.CutAndReconnect(best.c.pin, best.c.newSrc)
	if err != nil {
		return Change{}, err
	}
	return Change{
		Cut:       best.c.pin,
		OldSrc:    oldSrc,
		NewSrc:    best.c.newSrc,
		NewMuxes:  muxes,
		Violation: [2]int{x, y},
	}, nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// stillFlows reports whether data from register x can still reach
// register y over pure paths.
func stillFlows(nw *rsn.Network, x, y int) bool {
	return nw.PureReaches(rsn.Reg(x), rsn.Reg(y))
}
