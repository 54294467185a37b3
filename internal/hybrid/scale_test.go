package hybrid

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/icl"
	"repro/internal/netlist"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// scaleSIB parses a generated SIB-hierarchy network of the given scan
// flip-flop count with its embedded specification. The generator emits
// no instrument links, so the circuit is empty.
func scaleSIB(tb testing.TB, ffs int) (*rsn.Network, *netlist.Netlist, *secspec.Spec) {
	tb.Helper()
	var sb strings.Builder
	if _, err := bench.StreamScaleICL(&sb, nil, bench.ScaleGenConfig{TargetScanFFs: ffs, WithSpec: true, Seed: 1}); err != nil {
		tb.Fatal(err)
	}
	nw, spec, err := icl.ParseNetworkAndSpec(sb.String(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return nw, netlist.New(), spec
}

// TestAnalysisMemoryScale16k guards the component-local dependency
// layout: the analysis of a 16,384-FF SIB network — 1,024 register
// chains of 16 flip-flops — must allocate far less than the 400 MB that
// dense 16,384-bit rows per flip-flop and relation take.
func TestAnalysisMemoryScale16k(t *testing.T) {
	nw, circuit, spec := scaleSIB(t, 16384)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a, err := NewAnalysisOpts(nw, circuit, nil, spec, dep.Exact, engine.Options{Workers: 2})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 64 << 20
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
		t.Fatalf("NewAnalysisOpts allocated %d MB, limit %d MB", alloc>>20, limit>>20)
	}
	// 1,024 chains of 16: 120 preset entries each, already closed.
	if a.DepStats.DepsMultiCycle != 122880 || a.DepStats.ClosurePathDeps != 122880 {
		t.Fatalf("closure deps = %d (%d path), want 122880", a.DepStats.DepsMultiCycle, a.DepStats.ClosurePathDeps)
	}
}

// BenchmarkAnalysisScale16k measures the fixed-infrastructure analysis
// of a 16,384-FF SIB network (run with -benchmem for its allocation).
func BenchmarkAnalysisScale16k(b *testing.B) {
	nw, circuit, spec := scaleSIB(b, 16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewAnalysisOpts(nw, circuit, nil, spec, dep.Exact, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
