package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/dep"
	"repro/internal/hybrid"
	"repro/internal/obs"
	"repro/internal/verify"
)

// scale is the scale-sib workload: a streamed SIB hierarchy of 16,384
// scan flip-flops with an embedded specification. One op parses the
// ICL text and secures the network; one round runs one op per network
// of a fixed pool, in an order drawn from the seed.
type scale struct {
	ffs   int
	seeds []int64
	// want pins each pool network's result digest (nil: not pinned).
	want []digest

	src []string

	rounds   int
	mismatch []string
}

func newScale(tiny bool) *scale {
	if tiny {
		return &scale{ffs: 512, seeds: []int64{1, 2}}
	}
	return &scale{ffs: 16384, seeds: []int64{1, 2},
		want: []digest{{Runs: 1, Violating: 832, Pure: 416}, {Runs: 1, Violating: 768, Pure: 384}}}
}

func (w *scale) setup(*obs.Tracer) error {
	w.src = w.src[:0]
	for _, s := range w.seeds {
		var sb strings.Builder
		if _, err := bench.StreamScaleICL(&sb, nil, bench.ScaleGenConfig{TargetScanFFs: w.ffs, WithSpec: true, Seed: s}); err != nil {
			return err
		}
		w.src = append(w.src, sb.String())
	}
	return nil
}

func (w *scale) round(rc *roundCtx) error {
	w.rounds++
	for _, i := range rc.rng.Perm(len(w.src)) {
		opID := int64(i + 1)
		t0 := time.Now()
		sp := rc.start(nil, "op", opID)
		d, p, err := w.op(rc, opID, sp, i)
		sp.End()
		lat := time.Since(t0)
		ok := err == nil
		if ok {
			rc.untimed(func() {
				if v := verify.Check(p.nw, p.circuit, p.spec); !v.Secure {
					ok = false
					opFailed("network %d: verify.Check found %d insecure flows", i, len(v.Counterexamples))
				}
			})
		} else {
			opFailed("network %d: %v", i, err)
		}
		rc.op(lat, ok)
		if w.want != nil && d != w.want[i] {
			w.mismatch = append(w.mismatch, fmt.Sprintf("round %d network %d digest %v, pinned %v", w.rounds, i, d, w.want[i]))
		}
		if w.rounds == 1 {
			fmt.Printf("  network %d digest: %v\n", i, d)
		}
	}
	countResolve(rc)
	return nil
}

// op parses and secures pool network i.
func (w *scale) op(rc *roundCtx, opID int64, parent *obs.Span, i int) (digest, *parsedICL, error) {
	var d digest
	var p *parsedICL
	var err error
	rc.call(parent, "icl.parse", opID, func(*obs.Span) { p, err = parseICL(w.src[i]) })
	if err != nil {
		return d, nil, fmt.Errorf("icl: %w", err)
	}
	rc.count("icl.bytes", float64(len(w.src[i])))
	var an *hybrid.Analysis
	rc.call(parent, "analysis.build", opID, func(sp *obs.Span) {
		an, err = hybrid.NewAnalysisOpts(p.nw, p.circuit, nil, p.spec, dep.Exact, rc.engine(sp))
	})
	if err != nil {
		return d, nil, fmt.Errorf("dependency analysis: %w", err)
	}
	countEngine(rc, an)
	out, err := securePair(rc, opID, parent, an, p.nw)
	d.add(out)
	return d, p, err
}

func (w *scale) check() []string { return w.mismatch }

func (w *scale) close() {}
