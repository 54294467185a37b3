package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/hybrid"
	"repro/internal/obs"
	"repro/internal/secspec"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample must give 0")
	}
}

func TestTailPercentileSampleCount(t *testing.T) {
	for _, c := range []struct {
		n, q10 int
		ok     bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 500, true}, {39, 500, true}, {40, 750, true},
		{100, 900, true}, {199, 900, true}, {200, 950, true}, {999, 950, true},
		{1000, 990, true}, {9999, 990, true}, {10000, 999, true},
	} {
		q10, ok := tailPercentile(c.n)
		if q10 != c.q10 || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d,%v, want %d,%v", c.n, q10, ok, c.q10, c.ok)
		}
		if ok && beyond(c.n, q10) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, float64(q10)/10, beyond(c.n, q10))
		}
	}
}

func TestSelfTimeWithOverlappingParallelChildren(t *testing.T) {
	ev := func(id, parent uint64, name string, start, end int64) obs.Event {
		return obs.Event{Span: id, Parent: parent, Name: name, StartU: start, DurU: end - start}
	}
	events := []obs.Event{
		ev(1, 0, "root", 0, 100),
		// Two parallel children overlapping on [30, 50), and one that
		// runs past its parent's end.
		ev(2, 1, "worker", 10, 50),
		ev(3, 1, "worker", 30, 70),
		ev(4, 1, "tail", 90, 120),
		// A grandchild inside one worker.
		ev(5, 2, "leaf", 20, 25),
	}
	self := layerSelfTimes(events)
	want := map[string]int64{
		"root":   100 - 60 - 10, // minus [10,70) and [90,100)
		"worker": 60 - 5,        // union [10,70), minus the leaf
		"tail":   30,
		"leaf":   5,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, self[name], w)
		}
	}
}

func TestUnionAndSubtract(t *testing.T) {
	u := union([]interval{{5, 10}, {0, 3}, {2, 4}, {10, 12}, {20, 20}})
	want := []interval{{0, 4}, {5, 12}}
	if len(u) != len(want) || u[0] != want[0] || u[1] != want[1] {
		t.Fatalf("union = %v, want %v", u, want)
	}
	got := subtract(interval{1, 15}, u)
	if len(got) != 2 || got[0] != (interval{4, 5}) || got[1] != (interval{12, 15}) {
		t.Fatalf("subtract = %v", got)
	}
}

// TestSecurePairMatchesCoreSecure pins the benchmark's stage-by-stage
// pipeline to core.Secure: the same changes on the same inputs.
func TestSecurePairMatchesCoreSecure(t *testing.T) {
	b, _ := bench.ByName("FlexScan")
	base := protocolBase(b.Name)
	for s := int64(0); s < 3; s++ {
		nw := b.Build(b.ScaleForTarget(60))
		att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), base)
		spec := secspec.GenerateWithRoles(len(nw.Modules), att.DataSources, secspec.DefaultGenConfig(), base+s*31)
		ref := nw.Clone()
		rep, err := core.Secure(ref, att.Circuit, att.Internal, spec, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		an, err := hybrid.NewAnalysisOpts(nw, att.Circuit, att.Internal, spec, dep.Exact, engine.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		out, err := securePair(&roundCtx{}, 0, nil, an, nw)
		if err != nil {
			t.Fatal(err)
		}
		if out.insecureLogic != rep.InsecureLogic {
			t.Fatalf("spec %d: insecure logic %v, core %v", s, out.insecureLogic, rep.InsecureLogic)
		}
		if !rep.InsecureLogic && (out.pure != rep.PureChanges || out.hybrid != rep.HybridChanges || out.violating != rep.ViolatingRegsBefore) {
			t.Fatalf("spec %d: pure %d hybrid %d violating %d, core %d %d %d", s,
				out.pure, out.hybrid, out.violating, rep.PureChanges, rep.HybridChanges, rep.ViolatingRegsBefore)
		}
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestSmokeEveryWorkload runs each workload at tiny size, untraced and
// traced, and checks that it passes its output checks and reports
// exactly the metrics BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	e2eNames, perLayerNames := benchmarkMetrics(t)
	for _, wl := range []string{"protocol-flexscan", "scale-sib", "served-mix"} {
		for _, traced := range []bool{false, true} {
			c := config{workload: wl, seed: 3, seconds: 200 * time.Millisecond, trace: traced, tiny: true}
			w, err := newWorkload(c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(c, w)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Fatalf("%s traced=%v: %d attempted, %d failed: %v", wl, traced, res.attempted, res.failed, res.failures)
			}
			var m map[string]metric
			names := e2eNames
			if traced {
				m, names = perLayer(res), perLayerNames
				if len(res.events) == 0 {
					t.Errorf("%s: traced run recorded no spans", wl)
				}
			} else {
				m, _ = endToEnd(res)
			}
			if len(m) != len(names) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", wl, traced, len(m), len(names))
			}
			for _, n := range names {
				v, ok := m[n]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", wl, traced, n, v)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", wl, n, v.Value)
				}
			}
		}
	}
}

// TestServedOracleCatchesWrongCounts corrupts the counts the daemon
// reported for one miss and one delta: the end-of-run check, which
// recomputes them, must report each.
func TestServedOracleCatchesWrongCounts(t *testing.T) {
	c := config{workload: "served-mix", seed: 4, seconds: 100 * time.Millisecond, tiny: true}
	w := newServed(c.seed, true)
	res, err := run(c, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("clean run failed: %v", res.failures)
	}
	var miss, delta *resultCounts
	for _, mc := range w.checks {
		if miss == nil {
			miss = &mc.got
		}
		if delta == nil && len(mc.deltas) > 0 {
			delta = &mc.deltas[0].got
		}
	}
	if miss == nil || delta == nil {
		t.Fatalf("run checked no miss or no delta (%d misses)", len(w.checks))
	}
	miss.Hybrid++
	delta.Violating++
	if fails := w.check(); len(fails) != 2 {
		t.Fatalf("check found %d failures, want 2: %v", len(fails), fails)
	}
}
