package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// toy shrinks a workload to 24 slots × 40 bids and two restore cycles,
// keeping its shape; percentiles are unguarded at this size.
func toy(sp spec) spec {
	sp.slots = 24
	sp.rate = 40
	sp.minTail = 0
	if sp.killEvery > 0 {
		sp.killEvery = 8
	}
	return sp
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestWorkloadShapes runs all four shapes at toy size, untraced and
// traced, through the same measure() the benchmark uses — so every run
// here has passed the twin diff, the journal and decision-log gates and
// the phase reconciliation — and checks what is emitted.
func TestWorkloadShapes(t *testing.T) {
	loadGOMAXPROCS()
	for _, full := range workloads {
		sp := toy(full)
		t.Run(sp.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, traced := range []bool{false, true} {
				res, err := measure(sp, 1, 0, traced, dir, false)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: failed %d of %d", traced, res.Failed, res.Attempted)
				}
				want := metricsFor(traced)
				if len(res.Values) != len(want) {
					t.Errorf("traced=%v: %d values emitted, %d metrics defined", traced, len(res.Values), len(want))
				}
				seen := map[string]bool{}
				for _, m := range want {
					if seen[m.Name] {
						t.Errorf("metric %s defined twice", m.Name)
					}
					seen[m.Name] = true
					v, ok := res.Values[m.Name]
					if !ok {
						t.Errorf("traced=%v: metric %s not emitted", traced, m.Name)
					}
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("traced=%v: metric %s = %v", traced, m.Name, v)
					}
					if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
						t.Errorf("metric %q unit %q outside the allowed alphabet", m.Name, m.Unit)
					}
				}
				if !traced {
					for _, m := range want {
						if res.Values[m.Name] <= 0 {
							t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, res.Values[m.Name])
						}
					}
					continue
				}

				v := res.Values
				sum := v["harness.submit_phase_s"] + v["harness.step_phase_s"] + v["harness.restore_phase_s"]
				if wall := v["harness.wall_s"]; math.Abs(sum-wall) > 0.01*wall {
					t.Errorf("phases sum to %v, wall is %v", sum, wall)
				}
				if got := int(v["core.offer.count"]); got != res.Bids {
					t.Errorf("core.offer.count = %d, %d bids decided", got, res.Bids)
				}
				wantCycles := 0
				if sp.killEvery > 0 {
					wantCycles = 2
				}
				if got := int(v["harness.restore_cycles"]); got != wantCycles {
					t.Errorf("restore cycles = %d, want %d", got, wantCycles)
				}
				if sp.durable != (v["service.wal.fsyncs"] > 0) || sp.durable != (v["service.ckpt.full_bytes"] > 0) {
					t.Errorf("durable=%v but fsyncs=%v full_bytes=%v", sp.durable, v["service.wal.fsyncs"], v["service.ckpt.full_bytes"])
				}
				if sp.killEvery > 0 && v["service.wal.replayed"] == 0 {
					t.Errorf("kills landed on acked bids but the journal replayed none")
				}

				// The span file: one core.offer per decided bid, one
				// core.dp per OnVendor event, every child inside its parent.
				counts, err := checkSpanFile(filepath.Join(dir, sp.name+".spans.jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				if counts["core.offer"] != res.Bids {
					t.Errorf("%d core.offer spans, %d bids", counts["core.offer"], res.Bids)
				}
				if counts["core.dp"] != int(v["core.dp.runs"]) {
					t.Errorf("%d core.dp spans, core.dp.runs = %v", counts["core.dp"], v["core.dp.runs"])
				}
				if counts["service.http.step"] != sp.slots || counts["harness.restore"] != wantCycles {
					t.Errorf("span counts %v", counts)
				}
			}
		})
	}
}

func checkSpanFile(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	type rec struct {
		Span   int    `json:"span"`
		Name   string `json:"name"`
		Parent int    `json:"parent"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	var all []rec
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, err
		}
		all = append(all, r)
	}
	counts := map[string]int{}
	for i, r := range all {
		counts[r.Name]++
		if r.Span != i || r.End < r.Start {
			return nil, fmt.Errorf("span %d is out of order or ends before it starts", r.Span)
		}
		// Core spans nest exactly; HTTP spans hang from client spans
		// measured on another goroutine and may end a hair later.
		if strings.HasPrefix(r.Name, "core.") {
			if r.Parent < 0 || r.Parent >= len(all) {
				return nil, fmt.Errorf("span %d has no parent", r.Span)
			}
			if p := all[r.Parent]; r.Start < p.Start || r.End > p.End {
				return nil, fmt.Errorf("span %d lies outside its parent", r.Span)
			}
		}
	}
	return counts, sc.Err()
}

// TestBenchmarkJSON holds BENCHMARK.json to the metric catalogue and to
// the driver's schema limits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v does not match %q", i, w, workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics listed, %d defined", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != want[i].Better {
				t.Errorf("%s %d: %+v does not match %+v", kind, i, m, want[i])
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if len(b.PerLayer) > 128 || len(b.EndToEnd) > 16 || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("outside the driver's limits")
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
}

// TestCompare checks the three things -compare must do: refuse files
// from different inputs, hold welfare to equality, and flag a regression
// beyond the bound.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, seed int64, scale float64, welfare float64) string {
		rf := resultFile{Seed: seed, Seconds: 10, Host: hostInfo{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go", RateScale: rateScale, Slots: horizonSlots}}
		for _, sp := range workloads {
			for r := 0; r < 3; r++ {
				v := map[string]float64{}
				for _, m := range metricsFor(false) {
					v[m.Name] = 100 * (1 + 0.001*float64(r))
					if m.Better == "lower" {
						v[m.Name] *= scale
					}
				}
				v["welfare"] = welfare
				rf.Runs = append(rf.Runs, &runResult{Workload: sp.name, Seed: seed, Bids: 1000, Values: v})
			}
		}
		data, _ := json.Marshal(rf)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base := mk("a.json", 1, 1, 5000)

	var out bytes.Buffer
	if worse, err := compareFiles(&out, spec, base, mk("same.json", 1, 1, 5000)); err != nil || worse {
		t.Errorf("identical files: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if _, err := compareFiles(&out, spec, base, mk("seed2.json", 2, 1, 5000)); err == nil {
		t.Errorf("files with different seeds were compared")
	}
	out.Reset()
	if worse, err := compareFiles(&out, spec, base, mk("slow.json", 1, 1.5, 5000)); err != nil || !worse {
		t.Errorf("50%% slower timings: worse=%v err=%v", worse, err)
	}
	out.Reset()
	if worse, err := compareFiles(&out, spec, base, mk("welfare.json", 1, 1, 4999.99)); err != nil || !worse ||
		!strings.Contains(out.String(), "must repeat exactly") {
		t.Errorf("lower welfare: worse=%v err=%v\n%s", worse, err, out.String())
	}
}
