// Package metrics provides the statistics used by the evaluation figures:
// the latency CDF's point type (Figure 13; the curve comes from
// obs.Histogram), max-normalization of welfare matrices (Figures 4–9),
// improvement percentages, and empirical competitive ratios (Figure 12).
package metrics

import (
	"fmt"
	"math"
)

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value (seconds for latency CDFs)
	P float64 // cumulative probability in [0,1]
}

// NormalizeByMax divides every entry by the global maximum, yielding the
// normalized social welfare the paper's bar charts plot. A zero or
// negative maximum returns the input unchanged.
func NormalizeByMax(data [][]float64) [][]float64 {
	maxV := math.Inf(-1)
	for _, row := range data {
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
	}
	out := make([][]float64, len(data))
	for i, row := range data {
		out[i] = append([]float64(nil), row...)
		if maxV > 0 {
			for j := range out[i] {
				out[i][j] /= maxV
			}
		}
	}
	return out
}

// ImprovementPct returns (a−b)/b·100, the paper's "improves social
// welfare by X%" metric. It returns +Inf for non-positive b with
// positive a, and 0 when both are non-positive.
func ImprovementPct(a, b float64) float64 {
	if b <= 0 {
		if a > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return (a - b) / b * 100
}

// CompetitiveRatio returns OPT/online, clamped below at 1 (an online
// algorithm cannot beat the optimum; apparent ratios under 1 arise only
// from bound slack or numeric noise). A non-positive online welfare with
// positive OPT yields +Inf.
func CompetitiveRatio(opt, online float64) (float64, error) {
	if opt < 0 {
		return 0, fmt.Errorf("metrics: negative OPT %v", opt)
	}
	if online <= 0 {
		if opt == 0 {
			return 1, nil
		}
		return math.Inf(1), nil
	}
	r := opt / online
	if r < 1 {
		r = 1
	}
	return r, nil
}
