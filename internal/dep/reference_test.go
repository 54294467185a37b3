package dep

import (
	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/netlist"
)

// This file holds the test-only API of the package: the dense n×n
// reference matrix with the original one-at-a-time Bridge and the
// Warshall closure, which the component-local matrix is checked against,
// and the sequential conveniences the tests and benchmarks build on.

// Max aggregates two dependencies over alternative paths.
func Max(a, b Kind) Kind {
	if a > b {
		return a
	}
	return b
}

// denseMatrix is the dense reference relation: one n-bit path row and
// one n-bit structural row per flip-flop.
type denseMatrix struct {
	n         int
	path, str []*bitset.Set // str[i] ⊇ path[i]
}

func newDense(n int) *denseMatrix {
	d := &denseMatrix{n: n, path: make([]*bitset.Set, n), str: make([]*bitset.Set, n)}
	for i := 0; i < n; i++ {
		d.path[i] = bitset.New(n)
		d.str[i] = bitset.New(n)
	}
	return d
}

// set raises the dependency of i on j to at least k.
func (d *denseMatrix) set(i, j int, k Kind) {
	switch k {
	case Path:
		d.path[i].Set(j)
		fallthrough
	case Structural:
		d.str[i].Set(j)
	}
}

func (d *denseMatrix) kind(i, j int) Kind {
	if d.path[i].Has(j) {
		return Path
	}
	if d.str[i].Has(j) {
		return Structural
	}
	return None
}

func (d *denseMatrix) clone() *denseMatrix {
	cp := &denseMatrix{n: d.n, path: make([]*bitset.Set, d.n), str: make([]*bitset.Set, d.n)}
	for i := 0; i < d.n; i++ {
		cp.path[i] = d.path[i].Clone()
		cp.str[i] = d.str[i].Clone()
	}
	return cp
}

// edges returns the relation as an entry list.
func (d *denseMatrix) edges() *Edges {
	g := NewEdges(d.n)
	for i := 0; i < d.n; i++ {
		d.str[i].ForEach(func(j int) { g.Add(i, j, d.kind(i, j)) })
	}
	return g
}

// matrix returns the relation as a component-local matrix.
func (d *denseMatrix) matrix() *Matrix { return d.edges().Split() }

// denseOf reads a component-local matrix back into dense rows through
// Kind, entry by entry.
func denseOf(m *Matrix) *denseMatrix {
	d := newDense(m.N())
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			d.set(i, j, m.Kind(i, j))
		}
	}
	return d
}

// equal reports whether d and m denote exactly the same dependencies.
func (d *denseMatrix) equal(m *Matrix) bool {
	if d.n != m.N() {
		return false
	}
	for i := 0; i < d.n; i++ {
		for j := 0; j < d.n; j++ {
			if d.kind(i, j) != m.Kind(i, j) {
				return false
			}
		}
	}
	return true
}

// bridge is the dense reference Bridge: for every predecessor j and
// dependent i of an internal flip-flop k, the dependency of i on j is
// raised to Combine(dep(i,k), dep(k,j)); afterwards k carries nothing.
func (d *denseMatrix) bridge(internal []netlist.FFID) {
	type edge struct {
		node int
		kind Kind
	}
	for _, kf := range internal {
		k := int(kf)
		var preds, dependents []edge
		d.str[k].ForEach(func(j int) {
			if j != k { // self-loops never strengthen bridged deps
				preds = append(preds, edge{j, d.kind(k, j)})
			}
		})
		for i := 0; i < d.n; i++ {
			if i != k && d.str[i].Has(k) {
				dependents = append(dependents, edge{i, d.kind(i, k)})
			}
		}
		for _, dd := range dependents {
			for _, p := range preds {
				if k2 := Combine(dd.kind, p.kind); d.kind(dd.node, p.node) < k2 {
					d.set(dd.node, p.node, k2)
				}
			}
		}
		for i := 0; i < d.n; i++ {
			d.path[i].Clear(k)
			d.str[i].Clear(k)
		}
		d.path[k].Reset()
		d.str[k].Reset()
	}
}

// warshall is the dense bit-parallel Warshall closure, cubic in the
// matrix dimension regardless of sparsity: the reference of the SCC
// closure.
func (d *denseMatrix) warshall() {
	for _, rows := range [][]*bitset.Set{d.path, d.str} {
		for k := range rows {
			if !rows[k].Any() {
				continue
			}
			for i := range rows {
				if i != k && rows[i].Has(k) {
					rows[i].Or(rows[k])
				}
			}
		}
	}
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	cp := &Matrix{n: m.n, comp: m.comp, local: m.local, blocks: make([]block, len(m.blocks))}
	cl := func(rows []bitset.Set) []bitset.Set {
		out := bitset.Rows(len(rows), len(rows))
		for l := range rows {
			out[l].Or(&rows[l])
		}
		return out
	}
	for c, b := range m.blocks {
		cp.blocks[c] = block{members: b.members, path: cl(b.path), str: cl(b.str)}
	}
	return cp
}

// Equal reports whether the two matrices denote exactly the same
// dependencies.
func (m *Matrix) Equal(o *Matrix) bool { return denseOf(m).equal(o) }

// Bridge is BridgeOpts under the default engine configuration.
func Bridge(m *Matrix, internal []netlist.FFID) {
	// The background context never cancels, so the error is always nil.
	_ = BridgeOpts(m, internal, engine.Options{})
}

// Closure is ClosureOpts under the default engine configuration.
func Closure(m *Matrix) {
	_ = ClosureOpts(m, engine.Options{})
}

// OneCycleMatrix returns the 1-cycle dependency matrix of the circuit.
func OneCycleMatrix(n *netlist.Netlist, mode Mode, stats *Stats) *Matrix {
	g := NewEdges(n.NumFFs())
	_ = FillOneCycleOpts(g, n, mode, stats, engine.Options{})
	return g.Split()
}

// Result is the outcome of Compute: the multi-cycle dependency matrix
// over denoted flip-flops.
type Result struct {
	// M is the multi-cycle dependency closure. Rows/columns of bridged
	// (internal) flip-flops are empty.
	M *Matrix
	// OneCycle is the 1-cycle matrix before bridging.
	OneCycle *Matrix
	// Denoted[f] reports whether flip-flop f survived bridging.
	Denoted []bool
	Stats   Stats
}

// Compute runs the data-flow analysis of Section III-A over a circuit
// alone: 1-cycle dependencies, bridging over the internal flip-flops,
// and the multi-cycle closure on the reduced (denoted) set.
func Compute(n *netlist.Netlist, internal []netlist.FFID, mode Mode) *Result {
	res := &Result{}
	res.Stats.Mode = mode
	res.Stats.FFsTotal = n.NumFFs()

	one := OneCycleMatrix(n, mode, &res.Stats)
	res.OneCycle = one
	res.Stats.DepsBeforeBridge = one.CountDeps()

	m := one.Clone()
	Bridge(m, internal)
	res.Stats.BridgedFFs = len(internal)
	res.Stats.FFsDenoted = n.NumFFs() - len(internal)
	res.Stats.DepsAfterBridge = m.CountDeps()

	Closure(m)
	res.M = m
	res.Stats.DepsMultiCycle = m.CountDeps()
	res.Stats.ClosurePathDeps = m.CountPath()

	res.Denoted = make([]bool, n.NumFFs())
	for i := range res.Denoted {
		res.Denoted[i] = true
	}
	for _, k := range internal {
		res.Denoted[k] = false
	}
	return res
}

// fillOneCycleSequential is the pre-engine computation — one full miter
// encoding per (root, leaf) pair on a single goroutine: the reference
// of the pooled computation and the sequential benchmark baseline.
func fillOneCycleSequential(g *Edges, n *netlist.Netlist, mode Mode, stats *Stats) {
	for b := range n.FFs {
		root := n.FFs[b].D
		if root == netlist.NoNode {
			continue
		}
		for _, a := range n.SupportFFs(root) {
			if mode == StructuralApprox {
				g.Add(b, int(a), Path)
				continue
			}
			stats.SATCalls++
			if NewConeQuerier(n, root).Depends(n.FFs[a].Node) {
				stats.Functional1Cycle++
				g.Add(b, int(a), Path)
			} else {
				stats.StructOnly1Cycle++
				g.Add(b, int(a), Structural)
			}
		}
	}
}
