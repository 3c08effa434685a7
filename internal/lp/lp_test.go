package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := new(Solver).Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return s
}

func TestValidate(t *testing.T) {
	bad := []*Problem{
		{NumVars: 0},
		{NumVars: 2, Objective: []float64{1}},
		{NumVars: 1, Objective: []float64{1}, Constraints: []Constraint{{Terms: []Term{{Var: 5, Coef: 1}}}}},
	}
	for i, p := range bad {
		if _, err := new(Solver).Solve(p, Options{}); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
}

func TestTextbookMax(t *testing.T) {
	// max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), 36.
	p := &Problem{NumVars: 2, Objective: []float64{3, 5}}
	p.AddConstraint(LE, 4, Term{0, 1})
	p.AddConstraint(LE, 12, Term{1, 2})
	p.AddConstraint(LE, 18, Term{0, 3}, Term{1, 2})
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-36) > 1e-6 {
		t.Fatalf("status %v obj %v, want optimal 36", s.Status, s.Objective)
	}
	if math.Abs(s.X[0]-2) > 1e-6 || math.Abs(s.X[1]-6) > 1e-6 {
		t.Fatalf("x = %v, want (2,6)", s.X)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// max x + y s.t. x + y = 5, x ≥ 2 → 5 with x ∈ [2,5].
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint(EQ, 5, Term{0, 1}, Term{1, 1})
	p.AddConstraint(GE, 2, Term{0, 1})
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-5) > 1e-6 {
		t.Fatalf("status %v obj %v, want optimal 5", s.Status, s.Objective)
	}
	if s.X[0] < 2-1e-6 {
		t.Fatalf("x0 = %v violates x ≥ 2", s.X[0])
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// max x s.t. −x ≤ −3 (i.e. x ≥ 3), x ≤ 10 → 10.
	p := &Problem{NumVars: 1, Objective: []float64{1}}
	p.AddConstraint(LE, -3, Term{0, -1})
	p.AddConstraint(LE, 10, Term{0, 1})
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-10) > 1e-6 {
		t.Fatalf("status %v obj %v, want optimal 10", s.Status, s.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	// x ≥ 5 and x ≤ 3.
	p := &Problem{NumVars: 1, Objective: []float64{1}}
	p.AddConstraint(GE, 5, Term{0, 1})
	p.AddConstraint(LE, 3, Term{0, 1})
	s := solveOK(t, p)
	if s.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// max x s.t. x ≥ 1.
	p := &Problem{NumVars: 1, Objective: []float64{1}}
	p.AddConstraint(GE, 1, Term{0, 1})
	s := solveOK(t, p)
	if s.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", s.Status)
	}
}

func TestNoConstraints(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{-1, 0}}
	s := solveOK(t, p)
	if s.Status != Optimal || s.Objective != 0 {
		t.Fatalf("non-positive objective should be optimal at 0, got %v %v", s.Status, s.Objective)
	}
	p2 := &Problem{NumVars: 1, Objective: []float64{2}}
	if s2 := solveOK(t, p2); s2.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", s2.Status)
	}
}

func TestDegenerateProblem(t *testing.T) {
	// Classic degenerate vertex; must not cycle.
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint(LE, 0, Term{0, 1}, Term{1, -1})
	p.AddConstraint(LE, 4, Term{0, 1})
	p.AddConstraint(LE, 4, Term{1, 1})
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-8) > 1e-6 {
		t.Fatalf("status %v obj %v, want optimal 8", s.Status, s.Objective)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// x + y = 4 stated twice; solver must survive the redundant row.
	p := &Problem{NumVars: 2, Objective: []float64{1, 2}}
	p.AddConstraint(EQ, 4, Term{0, 1}, Term{1, 1})
	p.AddConstraint(EQ, 4, Term{0, 1}, Term{1, 1})
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-8) > 1e-6 {
		t.Fatalf("status %v obj %v, want optimal 8 (y=4)", s.Status, s.Objective)
	}
}

// bruteVertex enumerates basic feasible points of small ≤-only problems by
// checking all axis-aligned candidate grids; adequate as an independent
// reference for randomized tests with integral optima.
func knapsackLPReference(values, weights []float64, capacity float64) float64 {
	// Fractional knapsack: sort by density (the known LP optimum).
	type item struct{ v, w float64 }
	items := make([]item, len(values))
	for i := range values {
		items[i] = item{values[i], weights[i]}
	}
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			if items[j].v/items[j].w > items[i].v/items[i].w {
				items[i], items[j] = items[j], items[i]
			}
		}
	}
	total := 0.0
	for _, it := range items {
		if capacity <= 0 {
			break
		}
		take := math.Min(1, capacity/it.w)
		total += take * it.v
		capacity -= take * it.w
	}
	return total
}

func TestRandomFractionalKnapsacksMatchGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		values := make([]float64, n)
		weights := make([]float64, n)
		p := &Problem{NumVars: n, Objective: values}
		capTerm := make([]Term, n)
		for i := 0; i < n; i++ {
			values[i] = 1 + rng.Float64()*9
			weights[i] = 1 + rng.Float64()*4
			capTerm[i] = Term{i, weights[i]}
			p.AddConstraint(LE, 1, Term{i, 1}) // x_i ≤ 1
		}
		capacity := 1 + rng.Float64()*8
		p.AddConstraint(LE, capacity, capTerm...)
		s := solveOK(t, p)
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, s.Status)
		}
		want := knapsackLPReference(values, weights, capacity)
		if math.Abs(s.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: simplex %v, greedy %v", trial, s.Objective, want)
		}
	}
}

func TestSolutionFeasibility(t *testing.T) {
	// Whatever the optimum, returned points must satisfy all constraints.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		m := 2 + rng.Intn(5)
		p := &Problem{NumVars: n, Objective: make([]float64, n)}
		for j := 0; j < n; j++ {
			p.Objective[j] = rng.Float64() * 5
		}
		for i := 0; i < m; i++ {
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				terms[j] = Term{j, rng.Float64() * 3}
			}
			p.AddConstraint(LE, 1+rng.Float64()*10, terms...)
		}
		s := solveOK(t, p)
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, s.Status)
		}
		for i, c := range p.Constraints {
			lhs := 0.0
			for _, term := range c.Terms {
				lhs += term.Coef * s.X[term.Var]
			}
			if lhs > c.RHS+1e-6 {
				t.Fatalf("trial %d: constraint %d violated: %v > %v", trial, i, lhs, c.RHS)
			}
		}
		for j, v := range s.X {
			if v < -1e-9 {
				t.Fatalf("trial %d: x[%d] = %v negative", trial, j, v)
			}
		}
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || IterLimit.String() != "iteration-limit" ||
		Status(9).String() == "" {
		t.Fatal("status strings wrong")
	}
}
