package sat

import (
	"os"
	"path/filepath"
	"testing"
)

// The solver microbenchmarks run against pinned DIMACS instances under
// testdata/ so that before/after comparisons across solver changes
// measure the same formulas bit for bit:
//
//	php_8_7.cnf              PHP(8,7) pigeonhole, UNSAT, conflict-heavy
//	rand3_v150_r43_s1.cnf    random 3-SAT at ratio 4.3 (phase transition), SAT
//	rand3_v200_r38_s2.cnf    random 3-SAT at ratio 3.8, SAT, propagation-heavy
//	attack_miter_static.cnf  ScanSAT key-recovery miter, TreeFlat @ 48 FFs,
//	                         16-bit static xor/mux overlay, SAT
//	attack_miter_dyn.cnf     ScanSAT miter, BasicSCB @ 36 FFs, 8-bit
//	                         LFSR-scheduled (dynamic) overlay, SAT
//
// The two attack_miter instances are deterministic exports of
// obfus.WriteMiterDIMACS (the first query of every ScanSAT run: two
// unrolled key copies, shared symbolic config and scan-in, distinguisher
// asserted); TestAttackMiterTestdataPinned in internal/obfus regenerates
// them and fails if the committed bytes drift from the encoder.
//
// Besides ns/op, each benchmark reports the solver's own counters as
// custom metrics (propagations, conflicts, restarts, DB reductions per
// solve), so a change in search behaviour is visible even when the
// wall-clock delta is in the noise. bench_tables.txt records the
// before/after deltas of these counters across solver revisions.

func loadBenchCNF(tb testing.TB, name string) (int, [][]Lit) {
	tb.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	nv, clauses, err := ParseDIMACS(f)
	if err != nil {
		tb.Fatal(err)
	}
	return nv, clauses
}

func benchSolve(b *testing.B, name string, want Status) {
	nv, clauses := loadBenchCNF(b, name)
	var last Statistics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for v := 0; v < nv; v++ {
			s.NewVar()
		}
		ok := true
		for _, c := range clauses {
			if !s.AddClause(c...) {
				ok = false
				break
			}
		}
		st := Unsat
		if ok {
			st = s.Solve()
		}
		if st != want {
			b.Fatalf("%s: Solve = %v, want %v", name, st, want)
		}
		last = s.Stats
	}
	b.ReportMetric(float64(last.Propagations), "props/solve")
	b.ReportMetric(float64(last.Conflicts), "conflicts/solve")
	b.ReportMetric(float64(last.Restarts), "restarts/solve")
	b.ReportMetric(float64(last.DBReductions), "reduceDB/solve")
}

func BenchmarkDIMACSPigeonhole(b *testing.B) {
	benchSolve(b, "php_8_7.cnf", Unsat)
}

func BenchmarkDIMACSRand3Hard(b *testing.B) {
	benchSolve(b, "rand3_v150_r43_s1.cnf", Sat)
}

func BenchmarkDIMACSRand3Easy(b *testing.B) {
	benchSolve(b, "rand3_v200_r38_s2.cnf", Sat)
}

// The attack miters are large, heavily structured circuit instances
// (tens of thousands of variables, mostly binary/ternary gate clauses):
// the workload ScanSAT actually hands the solver, as opposed to the
// small combinatorial/random instances above.

func BenchmarkDIMACSAttackStatic(b *testing.B) {
	benchSolve(b, "attack_miter_static.cnf", Sat)
}

func BenchmarkDIMACSAttackDyn(b *testing.B) {
	benchSolve(b, "attack_miter_dyn.cnf", Sat)
}

// TestAttackMiterInstances pins the expected status of the committed
// attack instances: an overlay with at least one distinguishable key
// bit always yields a satisfiable initial miter.
func TestAttackMiterInstances(t *testing.T) {
	for _, name := range []string{"attack_miter_static.cnf", "attack_miter_dyn.cnf"} {
		nv, clauses := loadBenchCNF(t, name)
		s := New()
		for v := 0; v < nv; v++ {
			s.NewVar()
		}
		for _, c := range clauses {
			if !s.AddClause(c...) {
				t.Fatalf("%s: top-level conflict", name)
			}
		}
		if st := s.Solve(); st != Sat {
			t.Errorf("%s: Solve = %v, want Sat", name, st)
		}
	}
}

// BenchmarkIncrementalAssumptions replays the cofactor-query pattern of
// the dependence engine on a pinned satisfiable instance: many solves
// against one solver under a growing shared assumption prefix plus a
// per-query tail. This is the workload trail reuse accelerates; the
// reused-levels metric shows how much of each solve's prefix survived.
func BenchmarkIncrementalAssumptions(b *testing.B) {
	benchIncremental(b)
}

func benchIncremental(b *testing.B) {
	nv, clauses := loadBenchCNF(b, "rand3_v200_r38_s2.cnf")
	var last Statistics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for v := 0; v < nv; v++ {
			s.NewVar()
		}
		for _, c := range clauses {
			if !s.AddClause(c...) {
				b.Fatal("unexpected top-level conflict")
			}
		}
		// Fixed prefix of 12 assumptions; 48 queries vary only the tail.
		prefix := make([]Lit, 12)
		for j := range prefix {
			prefix[j] = MkLit(Var(1+j*7%nv), j%2 == 0)
		}
		assume := make([]Lit, 0, len(prefix)+1)
		for qi := 0; qi < 48; qi++ {
			tail := MkLit(Var(1+(qi*13+5)%nv), qi%3 == 0)
			assume = append(assume[:0], prefix...)
			assume = append(assume, tail)
			s.Solve(assume...)
		}
		last = s.Stats
	}
	b.ReportMetric(float64(last.Propagations), "props/run")
	b.ReportMetric(float64(last.Conflicts), "conflicts/run")
	b.ReportMetric(float64(last.ReusedLevels), "reused-levels/run")
	b.ReportMetric(float64(last.ReusedLits), "reused-lits/run")
}
