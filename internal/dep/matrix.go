// Component-local dependency matrices.
//
// A dependency relation over n flip-flops is stored per weakly connected
// component of its graph, not as n global n-bit rows: each component
// gets a dense bit block over its own local indices. Bridging and the
// multi-cycle closure only ever derive an entry (i, j) from a chain of
// entries linking j to i, so they never add an edge between two
// components and the blocks stay valid through both. Memory is the sum
// of the squared component sizes instead of n² — on SIB networks
// thousands of 16-node register blocks — and the blocks are independent
// units of work for the engine's worker pool.

package dep

import (
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/netlist"
)

// Edges collects dependency entries over flip-flops 0..n-1 before they
// are split into components. Entry (i, j, k) means i depends on j with
// kind at least k, i.e. data flows from j to i.
type Edges struct {
	n int
	e []edge
}

type edge struct {
	i, j int32
	k    Kind
}

// NewEdges returns an empty entry list over n flip-flops.
func NewEdges(n int) *Edges { return &Edges{n: n} }

// N returns the number of flip-flops indexed.
func (g *Edges) N() int { return g.n }

// Add raises the dependency of i on j to at least k.
func (g *Edges) Add(i, j int, k Kind) {
	if k != None {
		g.e = append(g.e, edge{int32(i), int32(j), k})
	}
}

// Matrix is a dependency relation over flip-flops 0..n-1, stored as one
// dense block per weakly connected component. Entry (i, j) means "i
// depends on j", i.e. data flows from j to i. Flip-flops without any
// dependency belong to no block.
type Matrix struct {
	n int
	// comp[i] is the block of flip-flop i, or -1; local[i] its row and
	// column within the block.
	comp, local []int32
	blocks      []block
}

// block is one component: its members ascending, so local order is
// global order, and its path and structural rows over local indices.
type block struct {
	members   []int32
	path, str []bitset.Set // str[l] ⊇ path[l]
}

// Split groups the entries' flip-flops into weakly connected components
// with a union-find and returns the component-local matrix. Blocks are
// numbered by their smallest member.
func (g *Edges) Split() *Matrix {
	m := &Matrix{n: g.n, comp: make([]int32, g.n), local: make([]int32, g.n)}
	parent := make([]int32, g.n)
	for i := range parent {
		parent[i] = int32(i)
		m.comp[i] = -1
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range g.e {
		m.comp[e.i], m.comp[e.j] = 0, 0 // has a dependency
		// The smaller root wins, so every root is its component's
		// smallest member.
		a, b := find(e.i), find(e.j)
		if a < b {
			parent[b] = a
		} else if b < a {
			parent[a] = b
		}
	}
	var sizes []int32
	for i := range m.comp {
		if m.comp[i] < 0 {
			continue
		}
		if r := find(int32(i)); r == int32(i) {
			m.comp[i] = int32(len(sizes))
			sizes = append(sizes, 0)
		} else {
			m.comp[i] = m.comp[r] // r < i is numbered already
		}
		m.local[i] = sizes[m.comp[i]]
		sizes[m.comp[i]]++
	}
	m.blocks = make([]block, len(sizes))
	flat := make([]int32, 0, g.n)
	for c, k := range sizes {
		b := &m.blocks[c]
		b.members = flat[len(flat) : len(flat)+int(k) : len(flat)+int(k)]
		flat = flat[:len(flat)+int(k)]
		b.path = bitset.Rows(int(k), int(k))
		b.str = bitset.Rows(int(k), int(k))
	}
	for i, c := range m.comp {
		if c >= 0 {
			m.blocks[c].members[m.local[i]] = int32(i)
		}
	}
	for _, e := range g.e {
		b := &m.blocks[m.comp[e.i]]
		li, lj := int(m.local[e.i]), int(m.local[e.j])
		if e.k == Path {
			b.path[li].Set(lj)
		}
		b.str[li].Set(lj)
	}
	return m
}

// N returns the number of flip-flops indexed.
func (m *Matrix) N() int { return m.n }

// Kind returns the dependency of i on j.
func (m *Matrix) Kind(i, j int) Kind {
	c := m.comp[i]
	if c < 0 || m.comp[j] != c {
		return None
	}
	b := &m.blocks[c]
	li, lj := int(m.local[i]), int(m.local[j])
	if b.path[li].Has(lj) {
		return Path
	}
	if b.str[li].Has(lj) {
		return Structural
	}
	return None
}

// ForEachPath calls f with every j on which i path-depends, ascending.
func (m *Matrix) ForEachPath(i int, f func(j int)) {
	c := m.comp[i]
	if c < 0 {
		return
	}
	b := &m.blocks[c]
	b.path[m.local[i]].ForEach(func(l int) { f(int(b.members[l])) })
}

// CountDeps returns the number of denoted dependencies (non-None
// entries).
func (m *Matrix) CountDeps() int { return m.count(func(b *block) []bitset.Set { return b.str }) }

// CountPath returns the number of Path entries.
func (m *Matrix) CountPath() int { return m.count(func(b *block) []bitset.Set { return b.path }) }

func (m *Matrix) count(rel func(*block) []bitset.Set) int {
	c := 0
	for bi := range m.blocks {
		rows := rel(&m.blocks[bi])
		for l := range rows {
			c += rows[l].Count()
		}
	}
	return c
}

// forEachBlock runs f on the given blocks over the engine's worker pool.
// Each call must touch only its own block, which keeps results
// independent of the worker count. Cancellation is checked before every
// block; the context error is returned once the started blocks finish.
func forEachBlock(blocks []int32, opts engine.Options, f func(c int32)) error {
	ctx := opts.Ctx()
	workers := min(opts.WorkerCount(), len(blocks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				idx := int(next.Add(1)) - 1
				if idx >= len(blocks) {
					return
				}
				f(blocks[idx])
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// BridgeOpts eliminates the given internal flip-flops from the matrix,
// one at a time (Figure 3): for every predecessor j and dependent i of
// an internal flip-flop k, the dependency of i on j is raised to
// Combine(dep(i,k), dep(k,j)); afterwards k carries no dependencies.
// Elimination stays inside k's block and keeps the given order there,
// so the blocks fan out over the engine's worker pool with results
// identical to one sequential pass. Afterwards the bridged flip-flops
// leave their blocks, which may fall apart into smaller components, and
// m is regrouped accordingly. BridgeOpts modifies m in place; on
// cancellation it returns the context error with m partly bridged.
func BridgeOpts(m *Matrix, internal []netlist.FFID, opts engine.Options) error {
	perBlock := make([][]int32, len(m.blocks))
	var todo []int32
	for _, kf := range internal {
		c := m.comp[kf]
		if c < 0 {
			continue // no dependencies to bridge
		}
		if len(perBlock[c]) == 0 {
			todo = append(todo, c)
		}
		perBlock[c] = append(perBlock[c], m.local[kf])
	}
	err := forEachBlock(todo, opts, func(c int32) {
		b := &m.blocks[c]
		for _, k := range perBlock[c] {
			b.eliminate(int(k))
		}
	})
	if err == nil && len(todo) > 0 {
		*m = *m.edges().Split()
	}
	return err
}

// edges returns the matrix's entries as a list.
func (m *Matrix) edges() *Edges {
	g := NewEdges(m.n)
	for _, b := range m.blocks {
		for l := range b.str {
			i := int(b.members[l])
			b.str[l].ForEach(func(j int) {
				k := Structural
				if b.path[l].Has(j) {
					k = Path
				}
				g.Add(i, int(b.members[j]), k)
			})
		}
	}
	return g
}

// eliminate bridges over local node k. Row k is read, never written,
// while the dependents' rows grow, so each dependent takes k's
// predecessors with one word-parallel Or per relation: a path link to k
// passes k's path and structural predecessors on, a structural link
// only structural ones. k's own bit (a self-loop never strengthens a
// bridged dependency) is cleared with k's column afterwards.
func (b *block) eliminate(k int) {
	for d := range b.str {
		if d == k || !b.str[d].Has(k) {
			continue
		}
		if b.path[d].Has(k) {
			b.path[d].Or(&b.path[k])
		}
		b.str[d].Or(&b.str[k])
		b.path[d].Clear(k)
		b.str[d].Clear(k)
	}
	b.path[k].Reset()
	b.str[k].Reset()
}
