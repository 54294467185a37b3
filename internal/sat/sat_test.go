package sat

import (
	"math/rand"
	"testing"
)

func TestLitEncoding(t *testing.T) {
	v := Var(7)
	p, n := PosLit(v), NegLit(v)
	if p.Var() != v || n.Var() != v {
		t.Fatalf("Var() round trip failed: %v %v", p.Var(), n.Var())
	}
	if p.Neg() || !n.Neg() {
		t.Fatalf("sign flags wrong: %v %v", p.Neg(), n.Neg())
	}
	if p.Not() != n || n.Not() != p {
		t.Fatalf("Not() not an involution")
	}
	if MkLit(v, false) != p || MkLit(v, true) != n {
		t.Fatalf("MkLit mismatch")
	}
	if p.String() != "v7" || n.String() != "~v7" {
		t.Fatalf("String: %q %q", p, n)
	}
}

func TestTrivialSat(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(PosLit(a)) {
		t.Fatal("AddClause failed")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if !s.Value(a) {
		t.Fatal("model must set a true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	if s.AddClause(NegLit(a)) {
		t.Fatal("conflicting unit must report failure")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

func TestEmptyFormulaIsSat(t *testing.T) {
	s := New()
	if got := s.Solve(); got != Sat {
		t.Fatalf("empty formula: Solve = %v, want Sat", got)
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	if !s.AddClause(PosLit(a), NegLit(a), PosLit(b)) {
		t.Fatal("tautology must be accepted")
	}
	s.AddClause(NegLit(b))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
}

func TestDuplicateLiterals(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a), PosLit(a), PosLit(a))
	if got := s.Solve(); got != Sat || !s.Value(a) {
		t.Fatalf("Solve = %v Value=%v", got, s.Value(a))
	}
}

func TestImplicationChain(t *testing.T) {
	// x1 & (x1->x2) & ... & (x99->x100) & (~x100) is unsat.
	s := New()
	const n = 100
	vs := make([]Var, n)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	s.AddClause(PosLit(vs[0]))
	for i := 0; i+1 < n; i++ {
		s.AddClause(NegLit(vs[i]), PosLit(vs[i+1]))
	}
	s.AddClause(NegLit(vs[n-1]))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(NegLit(a), PosLit(b)) // a -> b
	if got := s.Solve(PosLit(a), NegLit(b)); got != Unsat {
		t.Fatalf("Solve under a,~b = %v, want Unsat", got)
	}
	// Solver must remain usable and satisfiable afterwards.
	if got := s.Solve(PosLit(a)); got != Sat {
		t.Fatalf("Solve under a = %v, want Sat", got)
	}
	if !s.Value(b) {
		t.Fatal("model under assumption a must have b true")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve without assumptions = %v, want Sat", got)
	}
}

func TestAssumptionContradictsUnit(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	if got := s.Solve(NegLit(a)); got != Unsat {
		t.Fatalf("Solve under ~a = %v, want Unsat", got)
	}
	if got := s.Solve(PosLit(a)); got != Sat {
		t.Fatalf("Solve under a = %v, want Sat", got)
	}
}

func TestRepeatedAssumption(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	if got := s.Solve(NegLit(a), NegLit(a), NegLit(a)); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if s.Value(a) || !s.Value(b) {
		t.Fatalf("model wrong: a=%v b=%v", s.Value(a), s.Value(b))
	}
}

// addPigeonhole adds the pigeonhole principle PHP(m pigeons, n holes).
func addPigeonhole(s *Solver, pigeons, holes int) {
	p := make([][]Var, pigeons)
	for i := range p {
		p[i] = make([]Var, holes)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i < pigeons; i++ {
		cl := make([]Lit, holes)
		for j := 0; j < holes; j++ {
			cl[j] = PosLit(p[i][j])
		}
		s.AddClause(cl...)
	}
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				s.AddClause(NegLit(p[i][j]), NegLit(p[k][j]))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 6} {
		s := New()
		addPigeonhole(s, n+1, n)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d,%d): Solve = %v, want Unsat", n+1, n, got)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	s := New()
	addPigeonhole(s, 5, 5)
	if got := s.Solve(); got != Sat {
		t.Fatalf("PHP(5,5): Solve = %v, want Sat", got)
	}
}

func TestXorChainUnsat(t *testing.T) {
	// Encode x1 ^ x2 = 1, x2 ^ x3 = 1, ..., x_{n-1} ^ x_n = 1,
	// plus x1 = x_n for odd chain length parity contradiction.
	s := New()
	const n = 9
	vs := make([]Var, n)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		a, b := vs[i], vs[i+1]
		// a xor b: (a|b) & (~a|~b)
		s.AddClause(PosLit(a), PosLit(b))
		s.AddClause(NegLit(a), NegLit(b))
	}
	// With n-1=8 xors, x1 == x9 is forced; now force x1 != x9.
	s.AddClause(PosLit(vs[0]), PosLit(vs[n-1]))
	s.AddClause(NegLit(vs[0]), NegLit(vs[n-1]))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

// bruteForce decides satisfiability of clauses over vars 1..n by
// exhaustive enumeration.
func bruteForce(n int, clauses [][]Lit) bool {
	for m := 0; m < 1<<uint(n); m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				bit := m>>(uint(l.Var())-1)&1 == 1
				if bit != l.Neg() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		n := 3 + rng.Intn(10)
		m := 2 + rng.Intn(5*n)
		clauses := make([][]Lit, m)
		for i := range clauses {
			cl := make([]Lit, 3)
			for j := range cl {
				v := Var(1 + rng.Intn(n))
				cl[j] = MkLit(v, rng.Intn(2) == 0)
			}
			clauses[i] = cl
		}
		s := New()
		for v := 0; v < n; v++ {
			s.NewVar()
		}
		addOK := true
		for _, c := range clauses {
			if !s.AddClause(c...) {
				addOK = false
				break
			}
		}
		want := bruteForce(n, clauses)
		var got bool
		if !addOK {
			got = false
		} else {
			st := s.Solve()
			got = st == Sat
			if got {
				// Verify the model satisfies every clause.
				for _, c := range clauses {
					sat := false
					for _, l := range c {
						if s.Value(l.Var()) != l.Neg() {
							sat = true
							break
						}
					}
					if !sat {
						t.Fatalf("iter %d: model does not satisfy clause %v", iter, c)
					}
				}
			}
		}
		if got != want {
			t.Fatalf("iter %d (n=%d m=%d): solver=%v bruteforce=%v", iter, n, m, got, want)
		}
	}
}

func TestRandomWithAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 150; iter++ {
		n := 3 + rng.Intn(8)
		m := 2 + rng.Intn(4*n)
		clauses := make([][]Lit, m)
		for i := range clauses {
			cl := make([]Lit, 3)
			for j := range cl {
				v := Var(1 + rng.Intn(n))
				cl[j] = MkLit(v, rng.Intn(2) == 0)
			}
			clauses[i] = cl
		}
		nAssume := 1 + rng.Intn(3)
		assumed := map[Var]bool{}
		var assumptions []Lit
		for len(assumptions) < nAssume {
			v := Var(1 + rng.Intn(n))
			if assumed[v] {
				continue
			}
			assumed[v] = true
			assumptions = append(assumptions, MkLit(v, rng.Intn(2) == 0))
		}
		// Brute-force with assumptions folded in as unit clauses.
		all := append([][]Lit{}, clauses...)
		for _, a := range assumptions {
			all = append(all, []Lit{a})
		}
		want := bruteForce(n, all)

		s := New()
		for v := 0; v < n; v++ {
			s.NewVar()
		}
		ok := true
		for _, c := range clauses {
			if !s.AddClause(c...) {
				ok = false
				break
			}
		}
		var got bool
		if !ok {
			got = false
		} else {
			got = s.Solve(assumptions...) == Sat
		}
		if got != want {
			t.Fatalf("iter %d: solver=%v bruteforce=%v (assumptions %v)", iter, got, want, assumptions)
		}
		if ok {
			// The solver must remain reusable: solving without
			// assumptions afterwards must agree with brute force.
			want2 := bruteForce(n, clauses)
			got2 := s.Solve() == Sat
			if got2 != want2 {
				t.Fatalf("iter %d: reuse solver=%v bruteforce=%v", iter, got2, want2)
			}
		}
	}
}

func TestConflictBudget(t *testing.T) {
	s := New()
	addPigeonhole(s, 9, 8)
	s.SetConflictBudget(10)
	st, err := s.SolveLimited()
	if err == nil {
		// A very fast refutation is acceptable; otherwise budget applies.
		if st != Unsat {
			t.Fatalf("got %v without budget error", st)
		}
		return
	}
	if err != ErrBudget || st != Unknown {
		t.Fatalf("got (%v, %v), want (Unknown, ErrBudget)", st, err)
	}
	// Removing the budget must let the solve finish.
	s.SetConflictBudget(0)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

func TestIncrementalAddAfterSolve(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	if got := s.Solve(); got != Sat {
		t.Fatalf("first Solve = %v", got)
	}
	s.AddClause(NegLit(a))
	s.AddClause(NegLit(b))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("second Solve = %v, want Unsat", got)
	}
}

func TestStatsProgress(t *testing.T) {
	s := New()
	addPigeonhole(s, 6, 5)
	s.Solve()
	if s.Stats.Conflicts == 0 {
		t.Error("expected conflicts on PHP(6,5)")
	}
	if s.Stats.Propagations == 0 {
		t.Error("expected propagations")
	}
}

func TestNumVarsAndClauses(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	if s.NumVars() != 2 {
		t.Fatalf("NumVars = %d", s.NumVars())
	}
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(NegLit(a), PosLit(b))
	if s.NumClauses() != 2 {
		t.Fatalf("NumClauses = %d", s.NumClauses())
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Fatal("Status.String mismatch")
	}
}

func TestHeapOrdering(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.NewVar()
	}
	// Bump var 5 the most, then 3.
	for i := 0; i < 5; i++ {
		s.bumpVar(5)
	}
	s.bumpVar(3)
	v, ok := s.order.pop()
	if !ok || v != 5 {
		t.Fatalf("pop = %v, want 5", v)
	}
	v, ok = s.order.pop()
	if !ok || v != 3 {
		t.Fatalf("pop = %v, want 3", v)
	}
}

func BenchmarkSolverPigeonhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		addPigeonhole(s, 8, 7)
		if s.Solve() != Unsat {
			b.Fatal("expected Unsat")
		}
	}
}

func BenchmarkSolverRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, m := 120, 480 // below the phase transition: mostly SAT
	for i := 0; i < b.N; i++ {
		s := New()
		for v := 0; v < n; v++ {
			s.NewVar()
		}
		for c := 0; c < m; c++ {
			var cl [3]Lit
			for j := range cl {
				cl[j] = MkLit(Var(1+rng.Intn(n)), rng.Intn(2) == 0)
			}
			s.AddClause(cl[:]...)
		}
		s.Solve()
	}
}
