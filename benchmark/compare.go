package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// readBounds loads the regression bounds of the driver's end-to-end
// metrics from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// untraced groups a file's end-to-end runs by workload.
func (rf *resultFile) untraced() map[string][]*runResult {
	by := map[string][]*runResult{}
	for _, r := range rf.Runs {
		if !r.Traced {
			by[r.Workload] = append(by[r.Workload], r)
		}
	}
	return by
}

// comparable refuses two files that were not measured on the same host
// with the same inputs.
func comparable(a, b *resultFile) error {
	var diffs []string
	add := func(what string, x, y any) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", what, x, y))
		}
	}
	add("num_cpu", a.Host.NumCPU, b.Host.NumCPU)
	add("gomaxprocs", a.Host.GOMAXPROCS, b.Host.GOMAXPROCS)
	add("go_version", a.Host.GoVersion, b.Host.GoVersion)
	add("rate_scale", a.Host.RateScale, b.Host.RateScale)
	add("slots", a.Host.Slots, b.Host.Slots)
	add("persist_fs", a.Host.PersistFS, b.Host.PersistFS)
	add("seed", a.Seed, b.Seed)
	add("seconds", a.Seconds, b.Seconds)
	ua, ub := a.untraced(), b.untraced()
	for w, ra := range ua {
		if rb, ok := ub[w]; ok {
			add(w+" bids", ra[0].Bids, rb[0].Bids)
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("refusing to compare: %s", strings.Join(diffs, "; "))
	}
	return nil
}

// spread is the distance between the first and third quartile as a share
// of the median (Python's statistics.quantiles(v, n=4)); with fewer than
// four values, the full range over the median.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med := median(s)
	if len(s) < 2 || med == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q := func(k int) float64 { // exclusive method: position k(n+1)/4, 1-based
		pos := float64(k*(len(s)+1)) / 4
		i := int(pos)
		i = min(max(i, 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// compareFiles prints one row per pairing of end-to-end or serving metric
// and workload and reports whether any pairing got worse.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (worse bool, err error) {
	bounds, err := readBounds(specPath)
	if err != nil {
		return false, err
	}
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	if err := comparable(a, b); err != nil {
		return false, err
	}
	ua, ub := a.untraced(), b.untraced()
	fmt.Fprintf(w, "%-14s %-26s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "a median", "b median", "change", "bound", "spread", "verdict")
	for _, sp := range workloads {
		ra, rb := ua[sp.name], ub[sp.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range metricsFor(false) {
			va, vb := valuesOf(ra, m.Name), valuesOf(rb, m.Name)
			ma, mb := median(va), median(vb)
			sprd := math.Max(spread(va), spread(vb))
			bound, ok := bounds[m.Name]
			if !ok {
				bound = servingBound
			}
			// change > 0 means b is worse than a.
			change := (mb - ma) / math.Abs(ma)
			if m.Better == "higher" {
				change = -change
			}
			var verdict string
			switch {
			case m.Exact && mb == ma:
				verdict = "equal"
			case m.Exact && change > 0:
				verdict = "worse (must repeat exactly)"
			case m.Exact:
				verdict = "better"
			case sprd > bound:
				verdict = "unresolved (spread > bound)"
			case change > bound:
				verdict = "worse"
			case -change > math.Max(sprd, bound):
				verdict = "better"
			default:
				verdict = "within bound"
			}
			if strings.HasPrefix(verdict, "worse") {
				worse = true
			}
			fmt.Fprintf(w, "%-14s %-26s %14.6g %14.6g %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				sp.name, m.Name, ma, mb, 100*(mb-ma)/math.Abs(ma), 100*bound, 100*sprd, verdict)
		}
	}
	return worse, nil
}

func valuesOf(rs []*runResult, name string) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = r.Values[name]
	}
	return v
}
