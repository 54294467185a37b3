package dep

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/icl"
	"repro/internal/netlist"
)

// TestSCCClosureMatchesWarshall is the differential check of the
// component-local pipeline: on random relations of varying size,
// density, cyclicity and component structure — with both Path and
// Structural entries and random internal flip-flops — on the dependency
// matrices of scaled catalog benchmarks in both modes, and on the
// preset register chains of a generated SIB network, BridgeOpts must
// agree with the dense one-at-a-time Bridge and ClosureOpts with the
// dense Warshall closure, Kind for Kind on every pair, at any worker
// count.
func TestSCCClosureMatchesWarshall(t *testing.T) {
	check := func(t *testing.T, base *denseMatrix, internal []netlist.FFID) {
		t.Helper()
		bridged := base.clone()
		bridged.bridge(internal)
		closed := bridged.clone()
		closed.warshall()
		for _, workers := range []int{1, 3, 8} {
			opts := engine.Options{Workers: workers}
			m := base.matrix()
			if err := BridgeOpts(m, internal, opts); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !bridged.equal(m) {
				t.Fatalf("workers=%d: component-local bridging differs from the dense reference", workers)
			}
			if err := ClosureOpts(m, opts); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !closed.equal(m) {
				t.Fatalf("workers=%d: SCC closure differs from Warshall", workers)
			}
		}
	}
	// someInternal picks a random subset of the nodes, in random order.
	someInternal := func(rng *rand.Rand, n int) []netlist.FFID {
		var out []netlist.FFID
		for _, i := range rng.Perm(n) {
			if rng.Intn(4) == 0 {
				out = append(out, netlist.FFID(i))
			}
		}
		return out
	}

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		for iter := 0; iter < 80; iter++ {
			n := 2 + rng.Intn(40)
			base := newDense(n)
			// Sweep density from sparse DAG-like up to heavily cyclic;
			// include self-loops (i == j is allowed by Intn collisions).
			edges := rng.Intn(4 * n)
			for e := 0; e < edges; e++ {
				base.set(rng.Intn(n), rng.Intn(n), Kind(1+rng.Intn(2)))
			}
			check(t, base, nil)
			check(t, base, someInternal(rng, n))
		}
		// A few long chains and pure cycles: the shapes register chains
		// and capture/update couplings produce after bridging.
		for _, n := range []int{1, 2, 65, 130} {
			chain := newDense(n)
			ring := newDense(n)
			for i := 1; i < n; i++ {
				chain.set(i, i-1, Path)
				ring.set(i, i-1, Structural)
			}
			if n > 1 {
				ring.set(0, n-1, Path)
			}
			check(t, chain, nil)
			check(t, ring, nil)
		}
	})

	t.Run("components", func(t *testing.T) {
		// Many small components plus one large cyclic one, their nodes
		// interleaved over the index space by a random permutation.
		rng := rand.New(rand.NewSource(61))
		for iter := 0; iter < 6; iter++ {
			n := 300 + rng.Intn(200)
			perm := rng.Perm(n)
			base := newDense(n)
			next := 0
			take := func(k int) []int {
				ids := perm[next : next+k]
				next += k
				return ids
			}
			big := take(120 + rng.Intn(60))
			for i := range big {
				base.set(big[(i+1)%len(big)], big[i], Kind(1+rng.Intn(2)))
			}
			for e := 0; e < len(big); e++ {
				base.set(big[rng.Intn(len(big))], big[rng.Intn(len(big))], Kind(1+rng.Intn(2)))
			}
			for next < n {
				small := take(min(1+rng.Intn(8), n-next))
				for e := 0; e < 2*len(small); e++ {
					base.set(small[rng.Intn(len(small))], small[rng.Intn(len(small))], Kind(1+rng.Intn(2)))
				}
			}
			check(t, base, nil)
			check(t, base, someInternal(rng, n))
		}
	})

	t.Run("catalog", func(t *testing.T) {
		for _, name := range []string{"BasicSCB", "TreeFlat", "MBIST_1_5_5"} {
			for _, mode := range []Mode{Exact, StructuralApprox} {
				t.Run(name+"/"+mode.String(), func(t *testing.T) {
					b, ok := bench.ByName(name)
					if !ok {
						t.Fatalf("unknown benchmark %q", name)
					}
					att := bench.AttachCircuit(b.Build(0.15), bench.DefaultCircuitConfig(), 7)
					var stats Stats
					check(t, denseOf(OneCycleMatrix(att.Circuit, mode, &stats)), att.Internal)
				})
			}
		}
	})

	t.Run("sib", func(t *testing.T) {
		// The preset register chains of a generated 512-FF SIB network:
		// every register is one component, its chain a path DAG.
		var sb strings.Builder
		if _, err := bench.StreamScaleICL(&sb, nil, bench.ScaleGenConfig{TargetScanFFs: 512, WithSpec: true, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		nw, _, err := icl.ParseNetworkAndSpec(sb.String(), nil)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, r := range nw.Registers {
			total += r.Len
		}
		base := newDense(total)
		off := 0
		for _, r := range nw.Registers {
			for j := 1; j < r.Len; j++ {
				for i := 0; i < j; i++ {
					base.set(off+j, off+i, Path)
				}
			}
			off += r.Len
		}
		check(t, base, nil)
	})
}

// TestClosureOptsCancellation checks that a cancelled context stops the
// closure with the context's error and leaves the matrix untouched.
func TestClosureOptsCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := NewEdges(60)
	for e := 0; e < 200; e++ {
		g.Add(rng.Intn(60), rng.Intn(60), Kind(1+rng.Intn(2)))
	}
	base := g.Split()
	m := base.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ClosureOpts(m, engine.Options{Context: ctx}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !m.Equal(base) {
		t.Fatal("cancelled closure modified the matrix")
	}
}

// TestClosureItemsCounter checks that the stage items counter records
// the condensed component count of both relations over all nodes, a
// node without dependencies counting as one component of each.
func TestClosureItemsCounter(t *testing.T) {
	g := NewEdges(4)
	g.Add(1, 0, Path)
	g.Add(2, 1, Path)
	g.Add(1, 2, Path) // 1 and 2 form one SCC of the path relation
	m := g.Split()
	stats := engine.NewStats()
	if err := ClosureOpts(m, engine.Options{Stats: stats}); err != nil {
		t.Fatal(err)
	}
	// path relation: {0}, {1,2}, {3} = 3 components; str relation (a
	// superset, same edges here): 3 components as well.
	if got := stats.Stage("closure").Items(); got != 6 {
		t.Fatalf("closure items = %d, want 6", got)
	}
}

// BenchmarkClosureWarshall is the dense reference baseline for
// BenchmarkClosure (which runs the sparse SCC condensation).
func BenchmarkClosureWarshall(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 400
	base := newDense(n)
	for e := 0; e < n*4; e++ {
		base.set(rng.Intn(n), rng.Intn(n), Kind(1+rng.Intn(2)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.clone().warshall()
	}
}
