package lp

import (
	"math"
	"testing"
)

// FuzzSolveSmallLP decodes a tiny LP from fuzz bytes and checks solver
// invariants: no panic, and Optimal solutions are feasible.
func FuzzSolveSmallLP(f *testing.F) {
	f.Add([]byte{2, 2, 10, 20, 1, 2, 3, 4, 50, 60})
	f.Add([]byte{3, 1, 5, 5, 5, 1, 1, 1, 9})
	f.Add([]byte{1, 1, 0, 7, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := int(data[0]%4) + 1
		m := int(data[1]%4) + 1
		pos := 2
		next := func() float64 {
			if pos >= len(data) {
				return 1
			}
			v := float64(int(data[pos])-128) / 16
			pos++
			return v
		}
		p := &Problem{NumVars: n, Objective: make([]float64, n)}
		for j := 0; j < n; j++ {
			p.Objective[j] = next()
		}
		for i := 0; i < m; i++ {
			terms := make([]Term, 0, n)
			for j := 0; j < n; j++ {
				if c := next(); c != 0 {
					terms = append(terms, Term{j, c})
				}
			}
			sense := Sense(int(math.Abs(next())) % 3)
			p.AddConstraint(sense, next(), terms...)
		}
		sol, err := new(Solver).Solve(p, Options{MaxIters: 2000})
		if err != nil {
			t.Fatalf("Solve errored on structurally valid input: %v", err)
		}
		if sol.Status != Optimal {
			return
		}
		const eps = 1e-5
		for j, v := range sol.X {
			if v < -eps {
				t.Fatalf("x[%d] = %v negative at optimum", j, v)
			}
		}
		for i, c := range p.Constraints {
			lhs := 0.0
			for _, term := range c.Terms {
				lhs += term.Coef * sol.X[term.Var]
			}
			switch c.Sense {
			case LE:
				if lhs > c.RHS+eps {
					t.Fatalf("constraint %d violated: %v > %v", i, lhs, c.RHS)
				}
			case GE:
				if lhs < c.RHS-eps {
					t.Fatalf("constraint %d violated: %v < %v", i, lhs, c.RHS)
				}
			case EQ:
				if math.Abs(lhs-c.RHS) > eps {
					t.Fatalf("constraint %d violated: %v != %v", i, lhs, c.RHS)
				}
			}
		}
	})
}
