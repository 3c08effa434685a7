package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestStrongDuality solves random feasible-bounded primal problems
//
//	max c·x  s.t.  Ax ≤ b, x ≥ 0
//
// and their duals
//
//	min b·y  s.t.  Aᵀy ≥ c, y ≥ 0
//
// with the same simplex. Strong duality requires equal objectives; the
// primal and dual take different pivot paths, so agreement is a sharp
// correctness check.
func TestStrongDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5) // variables
		m := 2 + rng.Intn(5) // constraints
		A := make([][]float64, m)
		b := make([]float64, m)
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.Float64() * 5
		}
		for i := range A {
			A[i] = make([]float64, n)
			for j := range A[i] {
				A[i][j] = 0.1 + rng.Float64()*3 // strictly positive → bounded
			}
			b[i] = 1 + rng.Float64()*10
		}

		primal := &Problem{NumVars: n, Objective: c}
		for i := 0; i < m; i++ {
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				terms[j] = Term{j, A[i][j]}
			}
			primal.AddConstraint(LE, b[i], terms...)
		}
		ps, err := new(Solver).Solve(primal, Options{})
		if err != nil || ps.Status != Optimal {
			t.Fatalf("trial %d: primal %v %v", trial, ps.Status, err)
		}

		// Dual as a maximization: max −b·y s.t. −Aᵀy ≤ −c.
		negB := make([]float64, m)
		for i := range b {
			negB[i] = -b[i]
		}
		dual := &Problem{NumVars: m, Objective: negB}
		for j := 0; j < n; j++ {
			terms := make([]Term, m)
			for i := 0; i < m; i++ {
				terms[i] = Term{i, -A[i][j]}
			}
			dual.AddConstraint(LE, -c[j], terms...)
		}
		ds, err := new(Solver).Solve(dual, Options{})
		if err != nil || ds.Status != Optimal {
			t.Fatalf("trial %d: dual %v %v", trial, ds.Status, err)
		}
		if math.Abs(ps.Objective-(-ds.Objective)) > 1e-6*(1+math.Abs(ps.Objective)) {
			t.Fatalf("trial %d: duality gap: primal %v, dual %v", trial, ps.Objective, -ds.Objective)
		}
	}
}

// TestComplementarySlackness spot-checks that at the optimum, every
// strictly slack primal constraint has zero marginal value (via a
// perturbation argument: relaxing it does not change the optimum).
func TestComplementarySlackness(t *testing.T) {
	// max 3x+5y s.t. x ≤ 4 (slack at opt), 2y ≤ 12, 3x+2y ≤ 18.
	build := func(xCap float64) *Problem {
		p := &Problem{NumVars: 2, Objective: []float64{3, 5}}
		p.AddConstraint(LE, xCap, Term{0, 1})
		p.AddConstraint(LE, 12, Term{1, 2})
		p.AddConstraint(LE, 18, Term{0, 3}, Term{1, 2})
		return p
	}
	s1, err := new(Solver).Solve(build(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := new(Solver).Solve(build(5), Options{}) // relax the slack constraint
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1.Objective-s2.Objective) > 1e-9 {
		t.Fatalf("slack constraint had marginal value: %v vs %v", s1.Objective, s2.Objective)
	}
	s3, err := new(Solver).Solve(build(1), Options{}) // tighten until binding
	if err != nil {
		t.Fatal(err)
	}
	if s3.Objective >= s1.Objective {
		t.Fatal("binding constraint should reduce the optimum")
	}
}
