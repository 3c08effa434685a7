package metrics

import (
	"math"
	"testing"
)

func TestNormalizeByMax(t *testing.T) {
	data := [][]float64{{2, 4}, {8, 6}}
	norm := NormalizeByMax(data)
	want := [][]float64{{0.25, 0.5}, {1, 0.75}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(norm[i][j]-want[i][j]) > 1e-12 {
				t.Fatalf("norm[%d][%d] = %v, want %v", i, j, norm[i][j], want[i][j])
			}
		}
	}
	// Original untouched.
	if data[0][0] != 2 {
		t.Fatal("NormalizeByMax mutated input")
	}
	// All non-positive: unchanged.
	same := NormalizeByMax([][]float64{{-1, 0}})
	if same[0][0] != -1 || same[0][1] != 0 {
		t.Fatal("non-positive matrix should pass through")
	}
}

func TestImprovementPct(t *testing.T) {
	if got := ImprovementPct(150, 100); got != 50 {
		t.Fatalf("ImprovementPct = %v", got)
	}
	if !math.IsInf(ImprovementPct(1, 0), 1) {
		t.Fatal("positive over zero should be +Inf")
	}
	if ImprovementPct(-1, -2) != 0 {
		t.Fatal("both non-positive should be 0")
	}
}

func TestCompetitiveRatio(t *testing.T) {
	if _, err := CompetitiveRatio(-1, 1); err == nil {
		t.Fatal("negative OPT accepted")
	}
	r, err := CompetitiveRatio(10, 5)
	if err != nil || r != 2 {
		t.Fatalf("ratio = %v, %v", r, err)
	}
	// Clamped at 1 when bound slack puts online above OPT.
	r, _ = CompetitiveRatio(4, 5)
	if r != 1 {
		t.Fatalf("clamped ratio = %v", r)
	}
	r, _ = CompetitiveRatio(3, 0)
	if !math.IsInf(r, 1) {
		t.Fatalf("zero online ratio = %v", r)
	}
	r, _ = CompetitiveRatio(0, 0)
	if r != 1 {
		t.Fatalf("0/0 ratio = %v", r)
	}
}
