// Package lp implements a dense two-phase primal simplex solver for linear
// programs in the form
//
//	maximize    c·x
//	subject to  a_j·x {≤,=,≥} b_j   for each constraint j
//	            x ≥ 0
//
// It is the LP core under internal/milp's branch-and-bound and stands in
// for the Gurobi solver the paper uses for the Titan baseline and the
// offline optimum (see DESIGN.md Section 3). The implementation favors
// robustness over speed: Dantzig pricing with an automatic switch to
// Bland's rule to break cycling, and explicit artificial variables in
// phase one.
package lp

import (
	"fmt"
	"math"
)

// Sense is a constraint direction.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // a·x ≤ b
	GE              // a·x ≥ b
	EQ              // a·x = b
)

// Term is one non-zero coefficient of a constraint row.
type Term struct {
	Var  int
	Coef float64
}

// Constraint is one row a·x {≤,=,≥} b.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
}

// Problem is a linear program over variables x_0..x_{NumVars-1} ≥ 0.
type Problem struct {
	NumVars     int
	Objective   []float64 // maximized; len NumVars
	Constraints []Constraint
}

// AddConstraint appends a row built from parallel slices.
func (p *Problem) AddConstraint(sense Sense, rhs float64, terms ...Term) {
	p.Constraints = append(p.Constraints, Constraint{Terms: terms, Sense: sense, RHS: rhs})
}

// Validate reports structural errors.
func (p *Problem) Validate() error {
	if p.NumVars <= 0 {
		return fmt.Errorf("lp: no variables")
	}
	if len(p.Objective) != p.NumVars {
		return fmt.Errorf("lp: objective has %d coefficients for %d variables", len(p.Objective), p.NumVars)
	}
	for j, c := range p.Constraints {
		for _, t := range c.Terms {
			if t.Var < 0 || t.Var >= p.NumVars {
				return fmt.Errorf("lp: constraint %d references variable %d", j, t.Var)
			}
		}
	}
	return nil
}

// Status is the solver outcome.
type Status int8

// Solver statuses.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the solver result.
type Solution struct {
	Status    Status
	Objective float64   // c·x at the returned point (max sense)
	X         []float64 // len NumVars
}

// Options tunes the solver.
type Options struct {
	// MaxIters caps total pivots across both phases; 0 means a size-
	// derived default.
	MaxIters int
	// Eps is the numeric tolerance; 0 means 1e-9.
	Eps float64
}

const defaultEps = 1e-9

// Solver holds the simplex scratch — the dense tableau, basis, objective
// and reduced-cost rows — so repeated Solve calls stop allocating a fresh
// tableau per call. The zero value is ready to use. Not safe for
// concurrent use; Solution.X returned by a Solver aliases its scratch and
// is valid only until the next Solve call (copy it to retain it).
type Solver struct {
	tabBack []float64   // flat m×nCols tableau backing
	tab     [][]float64 // row headers into tabBack
	basis   []int
	artCols []int
	obj     []float64 // phase-1/phase-2 objective row
	reduced []float64 // simplex reduced-cost row
	x       []float64 // solution point
}

// takeX returns the zeroed solution buffer sized for p.
func (s *Solver) takeX(n int) []float64 {
	if cap(s.x) < n {
		s.x = make([]float64, n+n/2)
		s.x = s.x[:n]
	} else {
		s.x = s.x[:n]
		clear(s.x)
	}
	return s.x
}

// takeObj returns the zeroed objective row.
func (s *Solver) takeObj(n int) []float64 {
	if cap(s.obj) < n {
		s.obj = make([]float64, n+n/2)
		s.obj = s.obj[:n]
	} else {
		s.obj = s.obj[:n]
		clear(s.obj)
	}
	return s.obj
}

// Solve runs two-phase primal simplex, reusing the solver's scratch. The
// algorithm and its arithmetic order do not depend on what the scratch
// held before, so results are bit-exact regardless of scratch reuse.
func (s *Solver) Solve(p *Problem, opts Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	eps := opts.Eps
	if eps == 0 {
		eps = defaultEps
	}
	m := len(p.Constraints)
	if m == 0 {
		// Unconstrained non-negative maximization: unbounded unless all
		// objective coefficients are non-positive.
		x := s.takeX(p.NumVars)
		for _, c := range p.Objective {
			if c > eps {
				return &Solution{Status: Unbounded, X: x}, nil
			}
		}
		return &Solution{Status: Optimal, Objective: 0, X: x}, nil
	}

	// Column layout: [structural | slack/surplus | artificial | RHS].
	nStruct := p.NumVars
	nSlack := 0
	nArt := 0
	for _, c := range p.Constraints {
		rhs := c.RHS
		switch c.Sense {
		case LE:
			if rhs >= 0 {
				nSlack++ // slack basic
			} else {
				nSlack++ // becomes GE after sign flip: surplus + artificial
				nArt++
			}
		case GE:
			if rhs >= 0 {
				nSlack++
				nArt++
			} else {
				nSlack++ // becomes LE after sign flip
			}
		case EQ:
			nArt++
		}
	}
	nCols := nStruct + nSlack + nArt + 1
	rhsCol := nCols - 1

	// Branch-and-bound callers grow the problem by one fixed variable per
	// node, so the scratch grows with 50% headroom to amortize reuse
	// instead of reallocating on every solve.
	cells := m * nCols
	if cap(s.tabBack) < cells {
		s.tabBack = make([]float64, cells+cells/2)
	}
	s.tabBack = s.tabBack[:cells]
	clear(s.tabBack)
	if cap(s.tab) < m {
		s.tab = make([][]float64, m+m/2)
	}
	tab := s.tab[:m]
	for i := range tab {
		tab[i] = s.tabBack[i*nCols : (i+1)*nCols : (i+1)*nCols]
	}
	if cap(s.basis) < m {
		s.basis = make([]int, m+m/2)
	}
	basis := s.basis[:m]
	slackIdx := nStruct
	artIdx := nStruct + nSlack
	if cap(s.artCols) < nArt {
		s.artCols = make([]int, 0, nArt+nArt/2)
	}
	artCols := s.artCols[:0]

	for i, c := range p.Constraints {
		row := tab[i]
		sign := 1.0
		rhs := c.RHS
		sense := c.Sense
		if rhs < 0 {
			sign = -1
			rhs = -rhs
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		for _, t := range c.Terms {
			row[t.Var] += sign * t.Coef
		}
		row[rhsCol] = rhs
		switch sense {
		case LE:
			row[slackIdx] = 1
			basis[i] = slackIdx
			slackIdx++
		case GE:
			row[slackIdx] = -1
			slackIdx++
			row[artIdx] = 1
			basis[i] = artIdx
			artCols = append(artCols, artIdx)
			artIdx++
		case EQ:
			row[artIdx] = 1
			basis[i] = artIdx
			artCols = append(artCols, artIdx)
			artIdx++
		}
	}
	s.artCols = artCols

	maxIters := opts.MaxIters
	if maxIters == 0 {
		maxIters = 200 * (m + nCols)
	}
	iters := 0

	// Phase 1: minimize the sum of artificial variables.
	if len(artCols) > 0 {
		obj := s.takeObj(nCols)
		for _, j := range artCols {
			obj[j] = -1 // maximize −Σ artificials
		}
		status := s.simplex(tab, basis, obj, rhsCol, eps, maxIters, &iters)
		if status == IterLimit {
			return &Solution{Status: IterLimit, X: s.takeX(p.NumVars)}, nil
		}
		sum := 0.0
		for i, b := range basis {
			if isArt(b, nStruct+nSlack) {
				sum += tab[i][rhsCol]
			}
		}
		if sum > 1e-7 {
			return &Solution{Status: Infeasible, X: s.takeX(p.NumVars)}, nil
		}
		// Pivot remaining (degenerate) artificials out of the basis.
		for i, b := range basis {
			if !isArt(b, nStruct+nSlack) {
				continue
			}
			pivoted := false
			for j := 0; j < nStruct+nSlack; j++ {
				if math.Abs(tab[i][j]) > eps {
					pivot(tab, basis, i, j, rhsCol)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; leave the artificial basic at zero and
				// forbid it from re-entering by zeroing its column use.
				continue
			}
		}
		// Freeze artificial columns at zero.
		for _, j := range artCols {
			for i := range tab {
				tab[i][j] = 0
			}
		}
	}

	// Phase 2: maximize the real objective.
	obj := s.takeObj(nCols)
	copy(obj, p.Objective)
	status := s.simplex(tab, basis, obj, rhsCol, eps, maxIters, &iters)

	x := s.takeX(p.NumVars)
	for i, b := range basis {
		if b < p.NumVars {
			x[b] = tab[i][rhsCol]
		}
	}
	val := 0.0
	for j, c := range p.Objective {
		val += c * x[j]
	}
	return &Solution{Status: status, Objective: val, X: x}, nil
}

func isArt(col, artStart int) bool { return col >= artStart }

// simplex maximizes obj over the current tableau in place. It returns
// Optimal, Unbounded, or IterLimit. The reduced-cost row is materialized
// once and then maintained by the same row operations as the body, so each
// pivot costs O(m·n) total instead of O(m·n) per candidate scan.
func (s *Solver) simplex(tab [][]float64, basis []int, obj []float64, rhsCol int, eps float64, maxIters int, iters *int) Status {
	m := len(tab)
	// reduced[j] = Σ_i c_basis[i]·tab[i][j] − c_j, built once (every entry
	// is overwritten, so the scratch row needs no clearing).
	if cap(s.reduced) < rhsCol+1 {
		s.reduced = make([]float64, (rhsCol+1)+(rhsCol+1)/2)
	}
	reduced := s.reduced[:rhsCol+1]
	for j := 0; j <= rhsCol; j++ {
		r := 0.0
		if j < rhsCol {
			r = -obj[j]
		}
		for i := 0; i < m; i++ {
			if cb := obj[basis[i]]; cb != 0 {
				r += cb * tab[i][j]
			}
		}
		reduced[j] = r
	}
	blandAfter := maxIters / 2
	for {
		if *iters >= maxIters {
			return IterLimit
		}
		// Entering: most negative reduced cost (Dantzig), or Bland.
		enter := -1
		if *iters < blandAfter {
			best := -eps
			for j := 0; j < rhsCol; j++ {
				if reduced[j] < best {
					best = reduced[j]
					enter = j
				}
			}
		} else {
			for j := 0; j < rhsCol; j++ {
				if reduced[j] < -eps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Leaving: minimum ratio test (Bland tie-break on basis index).
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := tab[i][enter]
			if a > eps {
				ratio := tab[i][rhsCol] / a
				if ratio < bestRatio-eps ||
					(ratio < bestRatio+eps && (leave < 0 || basis[i] < basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		// Update the reduced-cost row with the same elimination the
		// pivot applies to body rows.
		pr := tab[leave]
		if f := reduced[enter] / pr[enter]; f != 0 {
			for j := 0; j <= rhsCol; j++ {
				reduced[j] -= f * pr[j]
			}
		}
		reduced[enter] = 0
		pivot(tab, basis, leave, enter, rhsCol)
		*iters++
	}
}

// pivot performs a Gauss-Jordan pivot on (row, col).
func pivot(tab [][]float64, basis []int, row, col, rhsCol int) {
	pr := tab[row]
	pv := pr[col]
	inv := 1 / pv
	for j := 0; j <= rhsCol; j++ {
		pr[j] *= inv
	}
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		ri := tab[i]
		for j := 0; j <= rhsCol; j++ {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0
	}
	basis[row] = col
}
