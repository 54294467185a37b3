package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/bench"
	"repro/internal/dep"
	"repro/internal/hybrid"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/rsn"
	"repro/internal/secspec"
	"repro/internal/verify"
)

// protocol is the protocol-flexscan workload: the paper's Table I
// protocol on FlexScan at its 700 scan-FF budget. One round secures
// every (circuit, spec) pair of a fixed grid; the seed only orders the
// circuits and the specs within a circuit. The circuit and spec seeds
// are those of `rsnbench -table main` (base seed 1), so a round
// reproduces the first cells of its FlexScan row.
type protocol struct {
	budget, circuits, specs int
	// want is the pinned result digest of one round (nil: not pinned).
	want *digest

	circ []protocolCircuit

	rounds   int
	mismatch []string
}

type protocolCircuit struct {
	nw       *rsn.Network
	circuit  *netlist.Netlist
	internal []netlist.FFID
	specs    []*secspec.Spec
}

func newProtocol(tiny bool) *protocol {
	if tiny {
		return &protocol{budget: 60, circuits: 2, specs: 2}
	}
	return &protocol{budget: 700, circuits: 2, specs: 2,
		want: &digest{Runs: 4, Violating: 752, Pure: 637, Hybrid: 965}}
}

// protocolBase is the per-benchmark base seed of the Table I protocol
// at experiment seed 1.
func protocolBase(name string) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, name)
	return 1 ^ int64(h.Sum64())
}

func (p *protocol) setup(*obs.Tracer) error {
	b, ok := bench.ByName("FlexScan")
	if !ok {
		return fmt.Errorf("FlexScan not in the catalog")
	}
	base := protocolBase(b.Name)
	scale := b.ScaleForTarget(p.budget)
	p.circ = make([]protocolCircuit, p.circuits)
	for c := range p.circ {
		nw := b.Build(scale)
		att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), base+int64(c)*7919)
		pc := protocolCircuit{nw: nw, circuit: att.Circuit, internal: att.Internal}
		for s := 0; s < p.specs; s++ {
			pc.specs = append(pc.specs, secspec.GenerateWithRoles(len(nw.Modules), att.DataSources,
				secspec.DefaultGenConfig(), base+int64(c)*104729+int64(s)*31))
		}
		p.circ[c] = pc
	}
	return nil
}

func (p *protocol) round(rc *roundCtx) error {
	var d digest
	for _, c := range rc.rng.Perm(len(p.circ)) {
		pc := &p.circ[c]
		var an *hybrid.Analysis
		var err error
		rc.call(nil, "analysis.build", 0, func(sp *obs.Span) {
			an, err = hybrid.NewAnalysisOpts(pc.nw, pc.circuit, pc.internal, nil, dep.Exact, rc.engine(sp))
		})
		if err != nil {
			return fmt.Errorf("circuit %d: dependency analysis: %w", c, err)
		}
		countEngine(rc, an)
		for _, s := range rc.rng.Perm(len(pc.specs)) {
			opID := int64(c*len(pc.specs) + s + 1)
			t0 := time.Now()
			sp := rc.start(nil, "op", opID)
			a2 := an.WithSpec(pc.specs[s])
			run := pc.nw.Clone()
			out, err := securePair(rc, opID, sp, a2, run)
			sp.End()
			if out.insecureLogic || out.noViolation {
				d.add(out)
				continue
			}
			ok := err == nil
			lat := time.Since(t0)
			if ok {
				rc.untimed(func() {
					if v := verify.Check(run, pc.circuit, pc.specs[s]); !v.Secure {
						ok = false
						opFailed("circuit %d spec %d: verify.Check found %d insecure flows", c, s, len(v.Counterexamples))
					}
				})
			} else {
				opFailed("circuit %d spec %d: %v", c, s, err)
			}
			rc.op(lat, ok)
			d.add(out)
		}
	}
	countResolve(rc)
	p.rounds++
	if p.want != nil && d != *p.want {
		p.mismatch = append(p.mismatch, fmt.Sprintf("round %d digest %v, pinned %v", p.rounds, d, *p.want))
	}
	if p.rounds == 1 {
		fmt.Printf("  round digest: %v\n", d)
	}
	return nil
}

func (p *protocol) check() []string { return p.mismatch }

func (p *protocol) close() {}
