package obs

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestHistogramCDF: the CDF is ascending in both coordinates, ends at 1,
// and puts each sample at its bucket's midpoint — exactly the sample for
// these three, which differ by more than a bucket.
func TestHistogramCDF(t *testing.T) {
	var h Histogram
	if h.CDF() != nil || h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("an empty histogram has a CDF, a quantile or a count")
	}
	for _, d := range []time.Duration{24, 8, 16} {
		h.Record(d * time.Nanosecond)
	}
	cdf := h.CDF()
	want := []float64{8e-9, 16e-9, 24e-9}
	if len(cdf) != len(want) {
		t.Fatalf("CDF %+v, want %d points", cdf, len(want))
	}
	for i, pt := range cdf {
		if pt.X != want[i] || math.Abs(pt.P-float64(i+1)/3) > 1e-12 {
			t.Fatalf("CDF point %d is %+v, want X %v P %v", i, pt, want[i], float64(i+1)/3)
		}
	}
	if h.Count() != 3 || h.Quantile(0) != 8 || h.Quantile(0.5) != 16 || h.Quantile(1) != 24 {
		t.Fatalf("count %d, quantiles %v %v %v", h.Count(), h.Quantile(0), h.Quantile(0.5), h.Quantile(1))
	}
}

// TestHistogramQuantileError holds Quantile to the bound its doc states:
// within 1/32 of the nearest-rank sample, exact below 32 ns, over
// latencies from nanoseconds to minutes.
func TestHistogramQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	samples := make([]time.Duration, 20000)
	for i := range samples {
		samples[i] = time.Duration(math.Exp(rng.Float64() * 25)) // 1 ns to ~72 s
		h.Record(samples[i])
	}
	h.Record(-time.Second) // counts as zero
	h.Record(math.MaxInt64)
	samples = append(samples, 0, math.MaxInt64)
	slices.Sort(samples)
	for _, q := range []float64{0, 0.001, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		rank := max(int(math.Ceil(q*float64(len(samples)))), 1)
		exact, got := samples[rank-1], h.Quantile(q)
		if err := math.Abs(float64(got - exact)); err > float64(exact)/32 || exact < 32 && got != exact {
			t.Errorf("q %v: %v, the sample is %v", q, got, exact)
		}
	}
	if h.Count() != uint64(len(samples)) {
		t.Fatalf("count %d, want %d", h.Count(), len(samples))
	}
	if n := testing.AllocsPerRun(100, func() { h.Record(time.Millisecond) }); n != 0 {
		t.Fatalf("Record allocates %v times", n)
	}
}
