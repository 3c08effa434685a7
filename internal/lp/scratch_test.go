package lp

import (
	"math/rand"
	"testing"
)

// randomProblem builds a deterministic random LP whose shape (variable
// count, constraint count, senses) varies with i, so a reused Solver
// sees grow and shrink transitions in every scratch buffer.
func randomProblem(r *rand.Rand, i int) *Problem {
	n := 1 + r.Intn(8)
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = float64(r.Intn(21) - 10)
	}
	mRows := 1 + r.Intn(10)
	for row := 0; row < mRows; row++ {
		terms := make([]Term, 0, n)
		for j := 0; j < n; j++ {
			if r.Intn(3) == 0 {
				continue
			}
			terms = append(terms, Term{Var: j, Coef: float64(r.Intn(11) - 5)})
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: r.Intn(n), Coef: 1})
		}
		sense := Sense(r.Intn(3))
		rhs := float64(r.Intn(41) - 10)
		if sense == EQ && i%2 == 0 {
			rhs = 0 // feasible-by-zero equalities keep some instances solvable
		}
		p.AddConstraint(sense, rhs, terms...)
	}
	return p
}

// cloneSolution deep-copies a Solution: a Solver-owned Solution.X
// aliases scratch that the next Solve on the same Solver overwrites.
func cloneSolution(s *Solution) *Solution {
	out := *s
	out.X = append([]float64(nil), s.X...)
	return &out
}

// TestSolverReuseBitIdenticalToFresh drives one Solver through a
// sequence of structurally different problems and requires every answer
// to be bit-identical (status, objective, and every coordinate of X) to
// a fresh Solver's Solve of the same problem. Any stale scratch
// surviving a grow/shrink/clear transition shows up as a diverging
// pivot and fails this exactly.
func TestSolverReuseBitIdenticalToFresh(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var shared Solver
	opts := Options{}
	for i := 0; i < 200; i++ {
		p := randomProblem(r, i)
		reused, errReused := shared.Solve(p, opts)
		fresh, errFresh := new(Solver).Solve(p, opts)
		if (errReused == nil) != (errFresh == nil) {
			t.Fatalf("problem %d: error mismatch: reused=%v fresh=%v", i, errReused, errFresh)
		}
		if errReused != nil {
			continue
		}
		got := cloneSolution(reused)
		if got.Status != fresh.Status {
			t.Fatalf("problem %d: status %v (reused) != %v (fresh)", i, got.Status, fresh.Status)
		}
		if got.Objective != fresh.Objective {
			t.Fatalf("problem %d: objective %v (reused) != %v (fresh)", i, got.Objective, fresh.Objective)
		}
		if len(got.X) != len(fresh.X) {
			t.Fatalf("problem %d: len(X) %d != %d", i, len(got.X), len(fresh.X))
		}
		for j := range got.X {
			if got.X[j] != fresh.X[j] {
				t.Fatalf("problem %d: X[%d] = %v (reused) != %v (fresh)", i, j, got.X[j], fresh.X[j])
			}
		}
	}
}

// TestSolverGrowShrinkGrow exercises the adversarial size sequence
// directly: a wide problem, then a tiny one, then the wide one again.
// The third solve must reproduce the first bit-for-bit even though the
// tiny solve truncated and rewrote the front of every scratch buffer.
func TestSolverGrowShrinkGrow(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	wide := randomProblem(r, 0)
	for wide.NumVars < 6 || len(wide.Constraints) < 8 {
		wide = randomProblem(r, 0)
	}
	tiny := &Problem{NumVars: 1, Objective: []float64{1}}
	tiny.AddConstraint(LE, 3, Term{Var: 0, Coef: 1})

	var s Solver
	first, err := s.Solve(wide, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := cloneSolution(first)
	if _, err := s.Solve(tiny, Options{}); err != nil {
		t.Fatal(err)
	}
	again, err := s.Solve(wide, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != want.Status || again.Objective != want.Objective {
		t.Fatalf("wide resolve diverged: got (%v, %v), want (%v, %v)",
			again.Status, again.Objective, want.Status, want.Objective)
	}
	for j := range want.X {
		if again.X[j] != want.X[j] {
			t.Fatalf("wide resolve X[%d] = %v, want %v", j, again.X[j], want.X[j])
		}
	}
}
