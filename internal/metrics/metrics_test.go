package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 4 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("p50 = %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		return Percentile(raw, a) <= Percentile(raw, b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

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
