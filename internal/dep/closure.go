// Sparse multi-cycle closure: per component block, Tarjan SCC
// condensation followed by reverse-topological bitset row unions.
//
// A dense Warshall closure is cubic in the matrix dimension regardless
// of how sparse the dependency graph is. After bridging the graph is
// sparse and almost acyclic — register chains and capture/update
// couplings produce long DAG-like strands with small cycles — so the
// condensation is near-linear: every strongly connected component's
// closure row is the union of its successors' rows (plus its own members
// when the component is cyclic), and Tarjan emits components in reverse
// topological order, meaning every successor is finished before its
// predecessors start. Paths never leave a block, so each block closes
// on its own and the blocks fan out over the engine worker pool; each
// writes only its own rows, so results are bit-identical to the
// sequential computation — and to the dense Warshall reference — at any
// worker count (TestSCCClosureMatchesWarshall checks this
// differentially).

package dep

import (
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/obs"
)

// ClosureOpts computes the multi-cycle dependency closure in place under
// an engine configuration: the transitive closure of path edges and,
// independently, of structural edges (a chain containing any
// only-structural link is structural). Cancellation is honored between
// blocks; on cancellation the matrix is left untouched and the context
// error is returned. The stage "closure" items counter receives the
// number of strongly connected components of both relations over all
// nodes, a node without dependencies counting as one component of each.
func ClosureOpts(m *Matrix, opts engine.Options) error {
	stage := opts.Stage("closure")
	span := opts.StartSpan("closure", obs.Int("nodes", int64(m.N())))
	defer span.End()
	all := make([]int32, len(m.blocks))
	for c := range all {
		all[c] = int32(c)
	}
	closed := make([][2][]bitset.Set, len(m.blocks))
	var ncp, ncs atomic.Int64
	err := forEachBlock(all, opts, func(c int32) {
		b := &m.blocks[c]
		p, np := closedRows(b.path)
		s, ns := closedRows(b.str)
		closed[c] = [2][]bitset.Set{p, s}
		ncp.Add(int64(np))
		ncs.Add(int64(ns))
	})
	if err != nil {
		return err
	}
	isolated := int64(m.n)
	for c := range m.blocks {
		m.blocks[c].path, m.blocks[c].str = closed[c][0], closed[c][1]
		isolated -= int64(len(m.blocks[c].members))
	}
	np, ns := ncp.Load()+isolated, ncs.Load()+isolated
	stage.AddItems(np + ns)
	span.SetAttrs(obs.Int("sccs_path", np), obs.Int("sccs_structural", ns))
	return nil
}

// closedRows returns the transitive closure of one block relation as
// fresh rows (the input rows are not modified), plus the number of
// strongly connected components of the relation's graph.
func closedRows(rows []bitset.Set) ([]bitset.Set, int) {
	n := len(rows)
	// Snapshot the adjacency as index slices: bitset iteration is
	// ascending, so successor lists are canonical.
	total := 0
	for i := range rows {
		total += rows[i].Count()
	}
	adj := make([][]int32, n)
	flat := make([]int32, 0, total)
	for i := range rows {
		s := len(flat)
		rows[i].ForEach(func(j int) { flat = append(flat, int32(j)) })
		adj[i] = flat[s:len(flat):len(flat)]
	}
	comp, order, start := tarjanSCC(adj)
	nc := len(start) - 1

	// Tarjan's emission order is reverse topological — for every cross
	// edge C -> C', C' is emitted before C — so one pass in emission
	// order sees every successor finished. Row out[rep] of a component's
	// first member holds its closure; reachability through a successor
	// s is s's row plus s's members, which the row already holds when s
	// is cyclic and is the lone member otherwise.
	out := bitset.Rows(n, n)
	cyclic := make([]bool, nc)
	stamp := make([]int32, nc)
	for i := range stamp {
		stamp[i] = -1
	}
	for c := 0; c < nc; c++ {
		members := order[start[c]:start[c+1]]
		res := &out[members[0]]
		cyc := len(members) > 1
		for _, u := range members {
			for _, w := range adj[u] {
				cw := comp[w]
				if cw == int32(c) {
					cyc = cyc || w == u // self-loop
					continue
				}
				if stamp[cw] == int32(c) {
					continue
				}
				stamp[cw] = int32(c)
				rep := order[start[cw]]
				res.Or(&out[rep])
				if !cyclic[cw] {
					res.Set(int(rep))
				}
			}
		}
		if cyc {
			for _, u := range members {
				res.Set(int(u)) // a node on a cycle reaches itself
			}
		}
		cyclic[c] = cyc
		for _, u := range members[1:] {
			out[u].Or(res)
		}
	}
	return out, nc
}

// tarjanSCC computes the strongly connected components of the graph
// given as adjacency lists, iteratively (no recursion — register chains
// make paths thousands of nodes long). It returns the component id per
// node and the members grouped by component in reverse topological
// emission order — every component is emitted after all components
// reachable from it — component c being order[start[c]:start[c+1]].
func tarjanSCC(adj [][]int32) (comp, order, start []int32) {
	n := len(adj)
	comp = make([]int32, n)
	order = make([]int32, 0, n)
	start = []int32{0}
	index := make([]int32, n) // 0 = unvisited, otherwise discovery index + 1
	low := make([]int32, n)
	onStack := make([]bool, n)
	sccStack := make([]int32, 0, 64)
	var counter int32 = 1

	type frame struct {
		v  int32
		si int
	}
	var dfs []frame
	for root := 0; root < n; root++ {
		if index[root] != 0 {
			continue
		}
		index[root] = counter
		low[root] = counter
		counter++
		sccStack = append(sccStack, int32(root))
		onStack[root] = true
		dfs = append(dfs[:0], frame{int32(root), 0})
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			v := f.v
			if f.si < len(adj[v]) {
				w := adj[v][f.si]
				f.si++
				if index[w] == 0 {
					index[w] = counter
					low[w] = counter
					counter++
					sccStack = append(sccStack, w)
					onStack[w] = true
					dfs = append(dfs, frame{w, 0})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			if low[v] == index[v] {
				c := int32(len(start) - 1)
				for {
					w := sccStack[len(sccStack)-1]
					sccStack = sccStack[:len(sccStack)-1]
					onStack[w] = false
					comp[w] = c
					order = append(order, w)
					if w == v {
						break
					}
				}
				start = append(start, int32(len(order)))
			}
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := &dfs[len(dfs)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
		}
	}
	return comp, order, start
}
