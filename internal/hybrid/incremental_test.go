package hybrid

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/pure"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// catalogCase reconstructs a scaled catalog benchmark with an attached
// circuit and a generated specification that produces hybrid
// violations (searching a few spec seeds), the same structures the
// experimental protocol runs on.
func catalogCase(tb testing.TB, name string, scale float64, seed int64) (*Analysis, *rsn.Network) {
	tb.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		tb.Fatalf("unknown benchmark %q", name)
	}
	nw := b.Build(scale)
	att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), seed)
	for specSeed := int64(0); specSeed < 24; specSeed++ {
		spec := secspec.Generate(len(nw.Modules), secspec.DefaultGenConfig(), specSeed)
		a := NewAnalysis(nw, att.Circuit, att.Internal, spec, dep.Exact)
		if len(a.InsecureModulePairs()) > 0 {
			continue
		}
		if len(a.violationsFrom(a.propagate(nw))) > 0 {
			return a, nw
		}
	}
	tb.Fatalf("%s: no spec seed with resolvable violations found", name)
	return nil, nil
}

// flexScanCase mirrors one run of the experimental protocol on the
// serial-bypass benchmark scaled to the given scan flip-flop budget: a
// role-aware generated specification without insecure logic, and the
// pure stage applied first, so the returned network is the post-pure
// one hybrid resolution sees. FlexScan's bypass chain makes nearly the
// whole combined graph dirty on every cut.
func flexScanCase(tb testing.TB, ffs int) (*Analysis, *rsn.Network) {
	tb.Helper()
	bm, ok := bench.ByName("FlexScan")
	if !ok {
		tb.Fatal("FlexScan missing from the catalog")
	}
	nw := bm.Build(bm.ScaleForTarget(ffs))
	att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), 7)
	an, err := NewAnalysisOpts(nw, att.Circuit, att.Internal, nil, dep.Exact, engine.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for specSeed := int64(0); specSeed < 64; specSeed++ {
		spec := secspec.GenerateWithRoles(len(nw.Modules), att.DataSources, secspec.DefaultGenConfig(), specSeed)
		cand := an.WithSpec(spec)
		if len(cand.InsecureModulePairs()) > 0 {
			continue
		}
		r := nw.Clone()
		if len(cand.Violations(r)) == 0 {
			continue
		}
		if _, err := pure.Resolve(r, spec); err != nil {
			continue
		}
		if len(cand.Violations(r)) == 0 {
			continue
		}
		return cand.WithSpec(spec), r
	}
	tb.Fatal("no spec seed with post-pure hybrid violations found")
	return nil, nil
}

// differentialCases are the resolve workloads of the differential
// tests: scaled catalog benchmarks, plus FlexScan at 350 flip-flops.
var differentialCases = []struct {
	name  string
	build func(testing.TB) (*Analysis, *rsn.Network)
}{
	{"BasicSCB", func(tb testing.TB) (*Analysis, *rsn.Network) { return catalogCase(tb, "BasicSCB", 0.15, 7) }},
	{"TreeFlat", func(tb testing.TB) (*Analysis, *rsn.Network) { return catalogCase(tb, "TreeFlat", 0.15, 7) }},
	{"MBIST_1_5_5", func(tb testing.TB) (*Analysis, *rsn.Network) { return catalogCase(tb, "MBIST_1_5_5", 0.15, 7) }},
	{"FlexScan350", func(tb testing.TB) (*Analysis, *rsn.Network) { return flexScanCase(tb, 350) }},
}

// propEqual compares two propagations attribute for attribute.
func propEqual(tb testing.TB, ctx string, full, delta *propagation) {
	tb.Helper()
	if len(full.attrIn) != len(delta.attrIn) {
		tb.Fatalf("%s: node counts differ: %d vs %d", ctx, len(full.attrIn), len(delta.attrIn))
	}
	for n := range full.attrIn {
		if full.attrIn[n] != delta.attrIn[n] {
			tb.Fatalf("%s: attrIn[%d] = %v incremental, %v full", ctx, n, delta.attrIn[n], full.attrIn[n])
		}
		if full.attrOut[n] != delta.attrOut[n] {
			tb.Fatalf("%s: attrOut[%d] = %v incremental, %v full", ctx, n, delta.attrOut[n], full.attrOut[n])
		}
	}
}

// TestIncrementalPropagateMatchesFull is the differential check of the
// delta worklist: it drives the resolve loop over catalog benchmarks
// and, at every iteration, evaluates EVERY candidate cut/reconnect
// change — all compatible pure-path predecessors of each wiring hop,
// uncapped, plus the scan-in fallback — comparing the incremental
// propagation (re-seeded from the parent wiring's fixed point) against
// a from-scratch propagation, attribute for attribute. It also checks
// deltas from a stale ancestor fixed point (the multi-change diff a
// restored snapshot produces). Every delta of a case runs through the
// same two reused worker scratches, and the resolve step through a
// third. After each compared run the scratch's dirty cone — the only
// nodes a run may leave differing from the parent — is overwritten
// with zero attributes, so a later run that fails to undo what an
// earlier one left behind surfaces as an attribute mismatch.
func TestIncrementalPropagateMatchesFull(t *testing.T) {
	for _, tc := range differentialCases {
		t.Run(tc.name, func(t *testing.T) {
			a, nw := tc.build(t)
			p0 := a.propagate(nw)
			nw0 := nw.Clone()
			var sParent, sAncestor scratch
			poison := func(s *scratch) {
				for _, n := range s.cone {
					s.p.attrIn[n], s.p.attrOut[n] = 0, 0
				}
			}
			pool := make([]scratch, 1)
			candidates := 0
			for step := 0; step < 12; step++ {
				parent := a.propagate(nw)
				viols := a.violationsFrom(parent)
				if len(viols) == 0 {
					break
				}
				v := viols[0].Node
				u, hops, err := a.culpritPath(nw, v)
				if err != nil {
					break // insecure-logic flow: nothing to transform
				}
				type trialCase struct {
					nw   *rsn.Network
					full *propagation
				}
				var trials []trialCase
				for _, h := range hops {
					pin := rsn.Sink{Elem: rsn.Reg(h.To), Idx: 0}
					var srcs []rsn.Ref
					for _, pr := range nw.PurePredecessors(h.To) {
						if pr != h.From {
							srcs = append(srcs, rsn.Reg(pr))
						}
					}
					srcs = append(srcs, rsn.ScanIn)
					for _, src := range srcs {
						trial := nw.Clone()
						if _, err := trial.CutAndReconnect(pin, src); err != nil || trial.Validate() != nil {
							continue
						}
						full := a.propagate(trial)
						propEqual(t, "parent delta", full, a.propagateDelta(&sParent, parent, nw, trial))
						poison(&sParent)
						propEqual(t, "ancestor delta", full, a.propagateDelta(&sAncestor, p0, nw0, trial))
						poison(&sAncestor)
						trials = append(trials, trialCase{trial, full})
						candidates++
					}
				}
				// Candidates of one step share most of their cone. The
				// decoy re-feeds every register from scan-in, so its cone
				// spans every node downstream of any register; run (and
				// poisoned) before each candidate, it leaves values the
				// candidate's run must undo outside its own cone.
				decoy := nw.Clone()
				for r := range decoy.Registers {
					decoy.Registers[r].In = rsn.ScanIn
				}
				propEqual(t, "decoy delta", a.propagate(decoy), a.propagateDelta(&sParent, parent, nw, decoy))
				for _, tr := range trials {
					a.propagateDelta(&sParent, parent, nw, decoy)
					poison(&sParent)
					propEqual(t, "delta after the decoy", tr.full, a.propagateDelta(&sParent, parent, nw, tr.nw))
					poison(&sParent)
				}
				if _, next, err := a.resolveOne(pool, nw, parent, u, v, hops, len(viols)); err != nil {
					break
				} else {
					propEqual(t, "applied change", a.propagate(nw), next)
				}
			}
			if candidates == 0 {
				t.Fatal("no candidate changes were compared")
			}
			t.Logf("%s: %d candidate changes compared", tc.name, candidates)
		})
	}
}

// TestFixedPointCache checks the cache semantics: identical wiring is
// answered with the cached fixed point outright, changed wiring goes
// through the delta path with the identical result, and a WithSpec copy
// never reuses the original's cache (attributes depend on the spec).
func TestFixedPointCache(t *testing.T) {
	a, nw := catalogCase(t, "BasicSCB", 0.15, 7)

	p1 := a.fixedPoint(nw)
	if a.fixedPoint(nw) != p1 {
		t.Fatal("identical wiring must be answered from the cache")
	}
	propEqual(t, "cached full", a.propagate(nw), p1)

	// Re-wire, then check the delta-path answer against from-scratch.
	viols := a.violationsFrom(p1)
	_, hops, err := a.culpritPath(nw, viols[0].Node)
	if err != nil {
		t.Fatal(err)
	}
	trial := nw.Clone()
	if _, err := trial.CutAndReconnect(rsn.Sink{Elem: rsn.Reg(hops[0].To), Idx: 0}, rsn.ScanIn); err != nil {
		t.Fatal(err)
	}
	p2 := a.fixedPoint(trial)
	if p2 == p1 {
		t.Fatal("changed wiring must not be answered from the cache")
	}
	propEqual(t, "delta path", a.propagate(trial), p2)

	// A spec copy must compute its own fixed point for the same wiring.
	spec2 := a.Spec.Clone()
	if len(spec2.Accepts) > 0 {
		spec2.Accepts[0] = 0
	}
	b := a.WithSpec(spec2)
	if b.cache == a.cache {
		t.Fatal("WithSpec must install a fresh cache")
	}
	propEqual(t, "spec copy", b.propagate(trial), b.fixedPoint(trial))
}

// TestResolveDeterministicAcrossWorkers checks the byte-identical
// output guarantee of the parallel candidate evaluation: the applied
// change sequence of Resolve must not depend on the worker count —
// results land in candidate-order slots, the trial fixed points are
// exact at any schedule, and the tie-break scans slots in order.
func TestResolveDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range differentialCases {
		t.Run(tc.name, func(t *testing.T) {
			a, nw := tc.build(t)
			var ref []Change
			for i, workers := range []int{1, 3, 8} {
				an, err := NewAnalysisOpts(nw, a.Circuit, internalOf(a), a.Spec, a.Mode,
					engine.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				run := nw.Clone()
				res, err := Resolve(an, run)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if i == 0 {
					ref = res.Changes
					continue
				}
				if len(res.Changes) != len(ref) {
					t.Fatalf("workers=%d: %d changes, want %d", workers, len(res.Changes), len(ref))
				}
				for j := range ref {
					if res.Changes[j] != ref[j] {
						t.Fatalf("workers=%d: change %d = %v, want %v", workers, j, res.Changes[j], ref[j])
					}
				}
			}
		})
	}
}

// internalOf recovers the bridged (internal) flip-flop list of an
// analysis from its Denoted marks.
func internalOf(a *Analysis) []netlist.FFID {
	var out []netlist.FFID
	for f := 0; f < a.NumCircuitFFs(); f++ {
		if !a.Denoted[f] {
			out = append(out, netlist.FFID(f))
		}
	}
	return out
}

// BenchmarkPropagate measures one from-scratch fixed-point propagation
// over a scaled catalog benchmark's combined graph.
func BenchmarkPropagate(b *testing.B) {
	a, nw := catalogCase(b, "MBIST_1_5_5", 0.15, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.propagate(nw)
	}
}

// BenchmarkPropagateDelta measures the incremental propagation of one
// candidate cut/reconnect change against the cached parent fixed point.
func BenchmarkPropagateDelta(b *testing.B) {
	a, nw := catalogCase(b, "MBIST_1_5_5", 0.15, 7)
	parent := a.propagate(nw)
	viols := a.violationsFrom(parent)
	_, hops, err := a.culpritPath(nw, viols[0].Node)
	if err != nil {
		b.Fatal(err)
	}
	trial := nw.Clone()
	if _, err := trial.CutAndReconnect(rsn.Sink{Elem: rsn.Reg(hops[0].To), Idx: 0}, rsn.ScanIn); err != nil {
		b.Fatal(err)
	}
	var s scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.propagateDelta(&s, parent, nw, trial)
	}
}

// BenchmarkResolveHybrid measures a full hybrid resolution run — the
// loop the incremental propagation and parallel candidate evaluation
// target — on a scaled catalog benchmark.
func BenchmarkResolveHybrid(b *testing.B) {
	a, nw := catalogCase(b, "BasicSCB", 0.15, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		an := a.WithSpec(a.Spec) // fresh cache: measure from cold
		run := nw.Clone()
		b.StartTimer()
		if _, err := Resolve(an, run); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveHybridFlexScan measures the resolve loop on the
// serial-bypass benchmark at the protocol's 700 flip-flop budget — the
// workload that dominates the experimental protocol's hybrid stage. It
// mirrors one protocol run: a role-aware generated specification and
// the pure stage applied first, so Resolve sees the post-pure network.
func BenchmarkResolveHybridFlexScan(b *testing.B) {
	a, run := flexScanCase(b, 700)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		an := a.WithSpec(a.Spec) // fresh cache: measure from cold
		r := run.Clone()
		b.StartTimer()
		if _, err := Resolve(an, r); err != nil {
			b.Fatal(err)
		}
	}
}

// denseBasePath is the dense oracle of the sparse views: it rebuilds the
// fixed infrastructure's 1-cycle dependencies of the analysis (circuit,
// preset register chains, capture/update links), keeps the path
// relation as one n-bit row per combined index, and bridges the
// internal flip-flops there one at a time. A bridged path entry needs
// path links on both sides, so the path relation bridges on its own.
func denseBasePath(tb testing.TB, a *Analysis, nw *rsn.Network) []*bitset.Set {
	tb.Helper()
	g := dep.NewEdges(a.Total())
	var st dep.Stats
	if err := dep.FillOneCycleOpts(g, a.Circuit, a.Mode, &st, engine.Options{}); err != nil {
		tb.Fatal(err)
	}
	for r := range nw.Registers {
		reg := &nw.Registers[r]
		for j := 0; j < reg.Len; j++ {
			for i := 0; i < j; i++ {
				g.Add(a.ScanIndex(r, j), a.ScanIndex(r, i), dep.Path)
			}
			if c := reg.Capture[j]; c != netlist.NoFF {
				g.Add(a.ScanIndex(r, j), int(c), dep.Path)
			}
			if f := reg.Update[j]; f != netlist.NoFF {
				g.Add(int(f), a.ScanIndex(r, j), dep.Path)
			}
		}
	}
	m := g.Split()
	rows := make([]*bitset.Set, a.Total())
	for i := range rows {
		rows[i] = bitset.New(a.Total())
		for j := range rows {
			if m.Kind(i, j) == dep.Path {
				rows[i].Set(j)
			}
		}
	}
	for _, kf := range a.InternalFFs() {
		k := int(kf)
		for d, row := range rows {
			if d != k && row.Has(k) {
				row.Or(rows[k])
			}
		}
		for _, row := range rows {
			row.Clear(k)
		}
		rows[k].Reset()
	}
	return rows
}

// TestSparseViewsMatchBase checks the sparse path rows against the dense
// oracle of the bridged path relation: row n of pathIn (pathOut) lists
// exactly the denoted nodes n path-depends on (that path-depend on n),
// ascending, for denoted n and nothing for bridged n; headReg agrees
// with IsScanNode.
func TestSparseViewsMatchBase(t *testing.T) {
	for _, tc := range differentialCases {
		t.Run(tc.name, func(t *testing.T) {
			a, nw := tc.build(t)
			rows := denseBasePath(t, a, nw)
			for n := 0; n < a.Total(); n++ {
				var wantIn, wantOut []int32
				if a.Denoted[n] {
					for u := 0; u < a.Total(); u++ {
						if !a.Denoted[u] {
							continue
						}
						if rows[n].Has(u) {
							wantIn = append(wantIn, int32(u))
						}
						if rows[u].Has(n) {
							wantOut = append(wantOut, int32(u))
						}
					}
				}
				if got := a.pathIn.row(n); !slices.Equal(got, wantIn) {
					t.Fatalf("pathIn row %d = %v, want %v", n, got, wantIn)
				}
				if got := a.pathOut.row(n); !slices.Equal(got, wantOut) {
					t.Fatalf("pathOut row %d = %v, want %v", n, got, wantOut)
				}
				want := int32(-1)
				if r, bit, ok := a.IsScanNode(n); ok && bit == 0 {
					want = int32(r)
				}
				if a.headReg[n] != want {
					t.Fatalf("headReg[%d] = %d, want %d", n, a.headReg[n], want)
				}
			}
		})
	}
}
