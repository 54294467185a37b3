// Running example: the paper's Figures 1, 3, 4 and 5 as an executable
// walk-through. It builds the circuit and scan network of Figure 1,
// demonstrates the attack of Section II-D by simulation, shows the
// bridging trace of Figure 3, resolves the pure violation (Figure 4)
// and the hybrid violation (Figure 5), and verifies by exhaustive
// simulation that the secured network leaks nothing.
package main

import (
	"fmt"
	"log"

	rsnsec "repro"
)

func main() {
	ex := rsnsec.RunningExample()
	fmt.Println("== Figure 1: the insecure running example ==")
	st := ex.Network.Stats()
	fmt.Printf("scan network: %d registers, %d scan flip-flops, %d muxes\n",
		st.Registers, st.ScanFFs, st.Muxes)
	fmt.Printf("circuit: %d flip-flops (%d internal: IF1, IF2)\n",
		ex.Circuit.NumFFs(), len(ex.Internal))
	fmt.Println("confidential: crypto's F2; untrusted: the module holding F7..F10")

	fmt.Println("\n== Section II-D: the attack, simulated ==")
	if leak := attack(ex); leak {
		fmt.Println("hybrid attack SUCCEEDS: F2's bit reached the untrusted F7")
	} else {
		log.Fatal("internal error: attack should succeed on the insecure network")
	}

	fmt.Println("\n== Figure 3: dependencies after bridging IF1 and IF2 ==")
	an := rsnsec.NewAnalysis(ex.Network, ex.Circuit, ex.Internal, ex.Spec, rsnsec.Exact)
	for _, pair := range [][2]rsnsec.FFID{{ex.F[8], ex.F[4]}, {ex.F[8], ex.F[5]}} {
		dst, src := pair[0], pair[1]
		kind := an.Kind(int(dst), int(src))
		fmt.Printf("%s on %s: %v\n", ex.Circuit.FFs[dst].Name, ex.Circuit.FFs[src].Name, kind)
	}
	fmt.Println("(the XOR reconvergence makes the F6 dependency only structural)")

	fmt.Println("\n== Figures 4 and 5: securing the network ==")
	rep, err := rsnsec.Secure(ex.Network, ex.Circuit, ex.Internal, ex.Spec, rsnsec.Options{
		Log: func(f string, a ...any) { fmt.Printf("  %s\n", fmt.Sprintf(f, a...)) },
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pure changes (Figure 4): %d\n", rep.PureChanges)
	for _, c := range rep.PureChangeList {
		fmt.Printf("  %s\n", c)
	}
	fmt.Printf("hybrid changes (Figure 5): %d\n", rep.HybridChanges)
	for _, c := range rep.HybridChangeList {
		fmt.Printf("  %s\n", c)
	}

	fmt.Println("\n== verification: replaying the attack on the secured network ==")
	if attack(ex) {
		log.Fatal("attack still succeeds — method failed")
	}
	fmt.Println("attack fails under every configuration: the RSN is data-flow secure")
}

// attack tries the Section II-D scenario under every mux configuration
// and shift count: capture the confidential F2, shift, update, clock the
// circuit, and check whether the bit reached the untrusted module.
func attack(ex *rsnsec.RunningExampleParts) bool {
	for _, cfg := range allConfigs(ex.Network) {
		for shifts := 0; shifts <= 14; shifts++ {
			csim := rsnsec.NewCircuitSimulator(ex.Circuit)
			csim.SetFF(ex.F[1], true) // the confidential bit
			sim := rsnsec.NewNetworkSimulator(ex.Network, csim)
			if sim.Capture(cfg) != nil {
				continue
			}
			if _, err := sim.ShiftN(cfg, nil, shifts); err != nil {
				continue
			}
			if sim.Update(cfg) != nil {
				continue
			}
			sim.ClockCircuit(4)
			for _, f := range []rsnsec.FFID{ex.F[6], ex.F[7], ex.F[8], ex.F[9]} {
				if csim.FFValue(f) {
					return true
				}
			}
		}
	}
	return false
}

func allConfigs(nw *rsnsec.Network) []rsnsec.ScanConfig {
	cfgs := []rsnsec.ScanConfig{nw.NewConfig()}
	for m := range nw.Muxes {
		var next []rsnsec.ScanConfig
		for _, c := range cfgs {
			for sel := range nw.Muxes[m].Inputs {
				cc := append(rsnsec.ScanConfig{}, c...)
				cc[m] = sel
				next = append(next, cc)
			}
		}
		cfgs = next
	}
	return cfgs
}
