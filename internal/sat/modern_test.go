package sat

import (
	"math/rand"
	"testing"
)

// TestTrailReuseAcrossPrefix checks that consecutive solves under a
// shared assumption prefix keep the prefix's decision levels on the
// trail (counted by ReusedLevels/ReusedLits) and still answer exactly
// like a fresh solver.
func TestTrailReuseAcrossPrefix(t *testing.T) {
	// Implication ladder: a_i -> b_i, plus cross clauses.
	s := New()
	const n = 30
	as := make([]Var, n)
	bs := make([]Var, n)
	for i := range as {
		as[i], bs[i] = s.NewVar(), s.NewVar()
		s.AddClause(NegLit(as[i]), PosLit(bs[i]))
	}
	prefix := make([]Lit, 0, n)
	for i := 0; i < n; i++ {
		prefix = append(prefix, PosLit(as[i]))
	}
	// First solve establishes the prefix; the following solves append
	// one extra assumption each and must reuse every prefix level.
	if st := s.Solve(prefix...); st != Sat {
		t.Fatalf("prefix solve = %v", st)
	}
	before := s.Stats
	for i := 0; i < n; i++ {
		q := append(append([]Lit{}, prefix...), NegLit(bs[i]))
		if st := s.Solve(q...); st != Unsat {
			t.Fatalf("query %d = %v, want Unsat (a_%d forces b_%d)", i, st, i, i)
		}
	}
	d := s.Stats.Sub(before)
	if d.ReusedLevels == 0 || d.ReusedLits == 0 {
		t.Fatalf("no trail reuse recorded across shared-prefix solves: %+v", d)
	}
	// Diverging prefix: flip the first assumption; reuse must not leak
	// stale implications.
	q := append([]Lit{NegLit(as[0])}, prefix[1:]...)
	if st := s.Solve(q...); st != Sat {
		t.Fatalf("diverged prefix solve = %v, want Sat", st)
	}
	if s.Value(as[0]) {
		t.Fatal("model violates flipped assumption")
	}
}

// TestTrailReuseRandomDifferential drives the incremental cofactor
// pattern — many solves under a growing shared prefix, interleaved with
// clause additions — against a fresh solver per query.
func TestTrailReuseRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 60; iter++ {
		n := 4 + rng.Intn(7)
		m := 3 + rng.Intn(4*n)
		clauses := make([][]Lit, m)
		for i := range clauses {
			cl := make([]Lit, 3)
			for j := range cl {
				cl[j] = MkLit(Var(1+rng.Intn(n)), rng.Intn(2) == 0)
			}
			clauses[i] = cl
		}
		inc := New()
		for v := 0; v < n; v++ {
			inc.NewVar()
		}
		ok := true
		for _, c := range clauses {
			if !inc.AddClause(c...) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Queries share a random prefix and vary the tail, like the
		// per-leaf cofactor queries of one cone.
		prefixLen := rng.Intn(3)
		prefix := make([]Lit, prefixLen)
		for i := range prefix {
			prefix[i] = MkLit(Var(1+rng.Intn(n)), rng.Intn(2) == 0)
		}
		for qi := 0; qi < 8; qi++ {
			tail := MkLit(Var(1+rng.Intn(n)), rng.Intn(2) == 0)
			q := append(append([]Lit{}, prefix...), tail)
			all := append([][]Lit{}, clauses...)
			for _, a := range q {
				all = append(all, []Lit{a})
			}
			want := bruteForce(n, all)
			if got := inc.Solve(q...) == Sat; got != want {
				t.Fatalf("iter %d query %d: incremental=%v bruteforce=%v", iter, qi, got, want)
			}
			if qi == 4 {
				// Mid-stream clause addition must cancel the kept trail
				// and stay correct.
				cl := []Lit{
					MkLit(Var(1+rng.Intn(n)), rng.Intn(2) == 0),
					MkLit(Var(1+rng.Intn(n)), rng.Intn(2) == 0),
				}
				if !inc.AddClause(cl...) {
					break
				}
				clauses = append(clauses, cl)
			}
		}
	}
}

// TestRestartPolicies solves a hard instance under the adaptive
// restart policy, which must refute it.
func TestRestartPolicies(t *testing.T) {
	s := New()
	addPigeonhole(s, 8, 7)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

// TestGlucoseReduceDB forces database reductions with a tiny learnt
// budget and checks the glucose invariants: reductions happen, clauses
// are deleted, and the result is still correct.
func TestGlucoseReduceDB(t *testing.T) {
	s := New()
	s.maxLearnts = 40 // force frequent reductions
	addPigeonhole(s, 8, 7)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
	if s.Stats.DBReductions == 0 {
		t.Fatalf("expected DB reductions with maxLearnts=40: %+v", s.Stats)
	}
	if s.Stats.Deleted == 0 {
		t.Fatalf("expected deleted learnt clauses: %+v", s.Stats)
	}
	// Glue clauses (LBD <= 2) survive every reduction.
	for i := range s.clauses {
		c := &s.clauses[i]
		if c.learnt && c.deleted && c.lbd <= 2 && c.lbd > 0 {
			t.Fatalf("glue clause (lbd=%d) was deleted", c.lbd)
		}
	}
}

// TestLBDAndBlockerCounters checks that the new hot-path counters move
// on a non-trivial instance.
func TestLBDAndBlockerCounters(t *testing.T) {
	s := New()
	addPigeonhole(s, 7, 6)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v", got)
	}
	if s.Stats.Learnt > 0 && s.Stats.LBDSum == 0 {
		t.Errorf("learnt %d clauses but LBDSum is zero", s.Stats.Learnt)
	}
	if s.Stats.BlockerHits == 0 {
		t.Error("no blocker hits recorded on a conflict-heavy instance")
	}
	if s.Stats.Propagations == 0 || s.Stats.Conflicts == 0 {
		t.Errorf("missing base counters: %+v", s.Stats)
	}
}

// TestStatisticsSub checks the field-wise delta helper.
func TestStatisticsSub(t *testing.T) {
	a := Statistics{Decisions: 10, Propagations: 100, Conflicts: 5, Learnt: 4,
		Deleted: 1, Restarts: 2, BlockerHits: 50, LBDSum: 12, GlueLearnt: 3,
		DBReductions: 1, ReusedLevels: 7, ReusedLits: 70}
	b := Statistics{Decisions: 4, Propagations: 40, Conflicts: 2, Learnt: 1,
		Deleted: 0, Restarts: 1, BlockerHits: 20, LBDSum: 5, GlueLearnt: 1,
		DBReductions: 0, ReusedLevels: 3, ReusedLits: 30}
	d := a.Sub(b)
	want := Statistics{Decisions: 6, Propagations: 60, Conflicts: 3, Learnt: 3,
		Deleted: 1, Restarts: 1, BlockerHits: 30, LBDSum: 7, GlueLearnt: 2,
		DBReductions: 1, ReusedLevels: 4, ReusedLits: 40}
	if d != want {
		t.Fatalf("Sub = %+v, want %+v", d, want)
	}
}

// TestAddClauseDuringKeptTrail: adding a clause between assumed solves
// (with a kept trail) must return to level 0 and stay sound.
func TestAddClauseDuringKeptTrail(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(NegLit(a), PosLit(b))
	if st := s.Solve(PosLit(a)); st != Sat {
		t.Fatalf("first solve = %v", st)
	}
	// The kept trail holds a=true, b=true; this clause contradicts it
	// only under the assumption, not at level 0.
	s.AddClause(NegLit(b), PosLit(c))
	if st := s.Solve(PosLit(a), NegLit(c)); st != Unsat {
		t.Fatalf("solve under a,~c = %v, want Unsat", st)
	}
	if st := s.Solve(NegLit(a)); st != Sat {
		t.Fatalf("solve under ~a = %v, want Sat", st)
	}
}
