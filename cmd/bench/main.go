// Command bench runs the tracked benchmark suite (internal/benchsuite)
// outside the test harness and records a machine-readable snapshot, so
// performance changes can be compared across commits:
//
//	go run ./cmd/bench -label seed          # writes BENCH_seed.json
//	go run ./cmd/bench -label pr1 -benchtime 2s
//	go run ./cmd/bench -run Offer           # only matching benchmarks
//	go run ./cmd/bench -compare BENCH_pr20.json -run Offer,Calibrate
//
// The snapshot captures ns/op, B/op and allocs/op for every benchmark
// plus the host shape (CPU count, GOMAXPROCS) needed to interpret the
// wall-clock numbers of the parallel-engine benchmarks. The `/parallel`
// variants run under -cpu (default: all cores), and each result records
// the GOMAXPROCS it ran with — a snapshot whose parallel rows say
// gomaxprocs 1 is measuring the sequential engine twice.
//
// With -compare, the suite runs against a baseline snapshot instead of
// recording one: any benchmark whose ns/op, B/op, or allocs/op regresses
// beyond the tolerance flags fails the run (exit 1), which is how `make
// bench-check` gates performance in CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/pdftsp/pdftsp/internal/benchsuite"
)

// Result is one benchmark's measurement in the snapshot.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// GOMAXPROCS records the worker ceiling this benchmark ran with;
	// multi-core rows appear once per core count.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// Metrics carries custom b.ReportMetric values (e.g. the WALAppend
	// rows' fsync-ns).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the BENCH_<label>.json schema.
type Snapshot struct {
	Label      string `json:"label"`
	Created    string `json:"created"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Benchtime  string `json:"benchtime"`
	// CPUList records the GOMAXPROCS values benchmarks ran with (base,
	// then the -cpu value applied to `/parallel` variants).
	CPUList    []int    `json:"cpu_list,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// matches reports whether name matches the -run filter: empty matches
// everything, otherwise a comma-separated list of substrings, any of
// which may match.
func matches(name, run string) bool {
	if run == "" {
		return true
	}
	for _, part := range strings.Split(run, ",") {
		if part != "" && strings.Contains(name, part) {
			return true
		}
	}
	return false
}

func main() {
	label := flag.String("label", "dev", "snapshot label; output file is BENCH_<label>.json")
	out := flag.String("out", ".", "directory the snapshot is written to")
	benchtime := flag.String("benchtime", "1s", "per-benchmark measurement time (testing -benchtime syntax)")
	run := flag.String("run", "", "only run benchmarks whose name contains one of these comma-separated substrings")
	cpu := flag.Int("cpu", 0, "GOMAXPROCS for the /parallel benchmark variants (0 = all cores)")
	compare := flag.String("compare", "", "baseline BENCH_<label>.json to compare against instead of recording a snapshot")
	nsTol := flag.Float64("ns-tol", 0.25, "tolerated ns/op regression fraction in -compare mode")
	bytesTol := flag.Float64("bytes-tol", 0.10, "tolerated bytes/op regression fraction in -compare mode")
	allocsTol := flag.Float64("allocs-tol", 0.10, "tolerated allocs/op regression fraction in -compare mode")
	flag.Parse()

	// testing.Benchmark honours the -test.benchtime flag, which only
	// exists after testing.Init registers it.
	testing.Init()
	if err := flag.CommandLine.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintf(os.Stderr, "bench: bad -benchtime %q: %v\n", *benchtime, err)
		os.Exit(2)
	}

	baseProcs := runtime.GOMAXPROCS(0)
	parallelProcs := *cpu
	if parallelProcs <= 0 {
		parallelProcs = runtime.NumCPU()
	}

	snap := Snapshot{
		Label:      *label,
		Created:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: baseProcs,
		NumCPU:     runtime.NumCPU(),
		Benchtime:  *benchtime,
		CPUList:    []int{baseProcs, parallelProcs},
	}

	// Multi-core serving rows run once per GOMAXPROCS so the snapshot
	// records the scaling curve; its num_cpu says how to read it.
	multiProcs := []int{1, 4}

	fmt.Printf("%-38s %12s %14s %12s %12s %6s\n", "benchmark", "iterations", "ns/op", "B/op", "allocs/op", "procs")
	for _, bm := range benchsuite.Suite() {
		if !matches(bm.Name, *run) {
			continue
		}
		procsList := []int{baseProcs}
		switch {
		case strings.Contains(bm.Name, "/parallel"):
			procsList = []int{parallelProcs}
		case bm.MultiCore:
			procsList = multiProcs
		}
		for _, procs := range procsList {
			prev := runtime.GOMAXPROCS(procs)
			r := testing.Benchmark(bm.Func)
			runtime.GOMAXPROCS(prev)
			res := Result{
				Name:        bm.Name,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				GOMAXPROCS:  procs,
			}
			if len(r.Extra) > 0 {
				res.Metrics = make(map[string]float64, len(r.Extra))
				for k, v := range r.Extra {
					res.Metrics[k] = v
				}
			}
			snap.Benchmarks = append(snap.Benchmarks, res)
			fmt.Printf("%-38s %12d %14.0f %12d %12d %6d%s\n",
				res.Name, res.Iterations, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.GOMAXPROCS,
				metricsSuffix(res.Metrics))
		}
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "bench: no benchmarks matched -run %q\n", *run)
		os.Exit(1)
	}

	if *compare != "" {
		if err := compareAgainst(*compare, snap.Benchmarks, *nsTol, *bytesTol, *allocsTol); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	path := filepath.Join(*out, "BENCH_"+*label+".json")
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s (gomaxprocs=%d, cpus=%d)\n", path, snap.GOMAXPROCS, snap.NumCPU)
}

// metricsSuffix renders custom metrics for the console table, keys
// sorted so runs diff cleanly.
func metricsSuffix(m map[string]float64) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %s=%.3f", k, m[k])
	}
	return sb.String()
}

// compareAgainst checks fresh measurements against a recorded baseline
// and returns an error naming every metric that regressed beyond its
// tolerance. Rows are matched by (name, gomaxprocs) so a multi-core
// benchmark compares against the baseline row at the same core count;
// baselines recorded before rows carried distinct core counts fall back
// to a bare-name match. Benchmarks absent from the baseline are
// reported but do not fail the run, so the suite can grow without
// invalidating old snapshots.
func compareAgainst(path string, fresh []Result, nsTol, bytesTol, allocsTol float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	key := func(r Result) string { return fmt.Sprintf("%s@%d", r.Name, r.GOMAXPROCS) }
	baseline := make(map[string]Result, 2*len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseline[key(r)] = r
		if _, dup := baseline[r.Name]; !dup {
			baseline[r.Name] = r
		}
	}

	var regressions []string
	pct := func(now, then float64) string {
		if then == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", 100*(now-then)/then)
	}
	fmt.Printf("\ncompare vs %s (label %q):\n", path, base.Label)
	fmt.Printf("%-38s %14s %12s %12s\n", "benchmark", "ns/op", "B/op", "allocs/op")
	for _, r := range fresh {
		b, ok := baseline[key(r)]
		if !ok {
			b, ok = baseline[r.Name]
		}
		if !ok {
			fmt.Printf("%-38s %s\n", rowLabel(r), "(not in baseline)")
			continue
		}
		fmt.Printf("%-38s %14s %12s %12s\n", rowLabel(r),
			pct(r.NsPerOp, b.NsPerOp),
			pct(float64(r.BytesPerOp), float64(b.BytesPerOp)),
			pct(float64(r.AllocsPerOp), float64(b.AllocsPerOp)))
		if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*(1+nsTol) {
			regressions = append(regressions, fmt.Sprintf(
				"%s ns/op %.0f > baseline %.0f (+%.0f%% tolerance)", rowLabel(r), r.NsPerOp, b.NsPerOp, 100*nsTol))
		}
		if r.BytesPerOp > int64(float64(b.BytesPerOp)*(1+bytesTol)) {
			regressions = append(regressions, fmt.Sprintf(
				"%s bytes/op %d > baseline %d (+%.0f%% tolerance)", rowLabel(r), r.BytesPerOp, b.BytesPerOp, 100*bytesTol))
		}
		if r.AllocsPerOp > int64(float64(b.AllocsPerOp)*(1+allocsTol)) {
			regressions = append(regressions, fmt.Sprintf(
				"%s allocs/op %d > baseline %d (+%.0f%% tolerance)", rowLabel(r), r.AllocsPerOp, b.AllocsPerOp, 100*allocsTol))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("performance regressions:\n  %s", strings.Join(regressions, "\n  "))
	}
	fmt.Println("no regressions")
	return nil
}

// rowLabel is the human-readable row identity in compare output —
// name plus core count, since multi-core rows repeat the name.
func rowLabel(r Result) string {
	return fmt.Sprintf("%s@%d", r.Name, r.GOMAXPROCS)
}
