// Command benchmark is the repository's one end-to-end benchmark of the
// bid pipeline. It boots the real serving stack in-process (trace →
// cluster + marketplace + calibrated scheduler → broker → HTTP handler on
// a loopback listener, virtual clock), drives it over HTTP as a closed
// loop, checks every run bit for bit against a sequential sim.Run twin,
// and prints every metric by name with its unit.
//
//	bash benchmark/run.sh                         # all workloads, both metric families
//	bash benchmark/run.sh -workload admit-wide -trace 0
//	bash benchmark/run.sh -runs 5 -trace 0 -out a.json
//	bash benchmark/run.sh -compare a.json b.json
//
// With one workload and -trace 0 or 1 the last line of standard output
// is the JSON object the benchmark driver reads. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo is the "same host, same file" fingerprint: -compare refuses
// two result files that disagree on it.
type hostInfo struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	RateScale  float64 `json:"rate_scale"`
	Slots      int     `json:"slots"`
	// PersistDir is where checkpoints, journals and decision logs went,
	// PersistFS its filesystem type. Every fsync number in the file was
	// measured on that filesystem in this sandbox; none is a device's.
	PersistDir string `json:"persist_dir"`
	PersistFS  string `json:"persist_fs"`
	FsyncNote  string `json:"fsync_note"`
}

type resultFile struct {
	Host    hostInfo     `json:"host"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Runs    []*runResult `json:"runs"`
}

// benchmarkJSON holds the regression bounds -compare applies; run.sh runs
// the program from the repository root, where it lives.
const benchmarkJSON = "BENCHMARK.json"

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Int64("seed", 1, "workload seed; the vendor seed is seed+7")
		seconds  = flag.Float64("seconds", 24, "measure each run for this long: set-up and serving phases of its passes")
		trace    = flag.Int("trace", -1, "0: end-to-end and serving metrics, tracing off; 1: per-layer metrics from traced passes; -1: both")
		runs     = flag.Int("runs", 1, "repeat every run this many times (for -out files that -compare reads)")
		out      = flag.String("out", "", "write every run's values and the host fingerprint to this JSON file")
		dir      = flag.String("dir", filepath.Join("benchmark", "out"), "directory for persistence files and span dumps")
		compare  = flag.Bool("compare", false, "compare two -out files: -compare a.json b.json")
		verbose  = flag.Bool("v", false, "print one line per pass to standard error")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare takes two result files")
		}
		worse, err := compareFiles(os.Stdout, benchmarkJSON, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	specs := workloads
	if *workload != "" {
		sp, ok := findWorkload(*workload)
		if !ok {
			fatal("unknown workload %q", *workload)
		}
		specs = []spec{sp}
	}
	var kinds []bool
	switch *trace {
	case 0:
		kinds = []bool{false}
	case 1:
		kinds = []bool{true}
	case -1:
		kinds = []bool{false, true}
	default:
		fatal("-trace must be 0, 1 or -1")
	}
	if *runs < 1 {
		fatal("-runs must be at least 1")
	}

	outDir, err := filepath.Abs(*dir)
	if err != nil {
		fatal("%v", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	rf := &resultFile{Seed: *seed, Seconds: *seconds, Host: hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: loadGOMAXPROCS(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		RateScale: rateScale, Slots: horizonSlots,
		PersistDir: outDir, PersistFS: fsType(outDir),
		FsyncNote: "fsync latencies are this sandbox's filesystem, not a storage device's",
	}}
	fmt.Printf("host: %d cpu, GOMAXPROCS %d, %s %s/%s; persistence on %s (%s); seed %d\n",
		rf.Host.NumCPU, rf.Host.GOMAXPROCS, rf.Host.GoVersion, rf.Host.GOOS, rf.Host.GOARCH,
		rf.Host.PersistDir, rf.Host.PersistFS, *seed)

	var last *runResult
	for _, sp := range specs {
		for _, traced := range kinds {
			for r := 0; r < *runs; r++ {
				res, err := measure(sp, *seed, *seconds, traced, outDir, *verbose)
				if err != nil {
					// No result is printed or written for a run that
					// failed its correctness gate.
					fatal("%s: %v", sp.name, err)
				}
				printRun(res)
				rf.Runs = append(rf.Runs, res)
				last = res
			}
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rf, "", "  ")
		if err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
	}
	if len(specs) == 1 && len(kinds) == 1 && *runs == 1 {
		printDriverLine(last)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// printRun prints every metric of one run by name, with its unit.
func printRun(r *runResult) {
	kind := "end-to-end and serving (tracing off)"
	if r.Traced {
		kind = "per-layer (traced passes)"
	}
	fmt.Printf("\n%s  seed %d  %s  %d passes × %d bids  failed %d of %d  verified against sim.Run  cpu steal %.1f%%\n",
		r.Workload, r.Seed, kind, r.Passes, r.Bids, r.Failed, r.Attempted, 100*r.StealShare)
	for _, m := range metricsFor(r.Traced) {
		fmt.Printf("  %-38s %16.6g %s\n", m.Name, r.Values[m.Name], m.Unit)
	}
	var counts []string
	for _, k := range []string{"ack", "decision", "slot_close", "offer", "dp", "handler", "wire"} {
		if n, ok := r.Samples[k]; ok {
			counts = append(counts, fmt.Sprintf("%s %d", k, n))
		}
	}
	fmt.Printf("  samples behind each percentile (nearest rank): %s\n", strings.Join(counts, ", "))
}

// printDriverLine prints the benchmark driver's result object as the
// last line of standard output.
func printDriverLine(r *runResult) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	// The driver's end-to-end list is shorter than what an untraced run
	// measures: the serving metrics reach it with the per-layer ones.
	metrics := endToEnd
	if r.Traced {
		metrics = perLayer
	}
	for _, m := range metrics {
		line.Metrics[m.Name] = value{Value: r.Values[m.Name], Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("%s\n", data)
}

// fsType names the filesystem holding dir, from /proc/self/mountinfo;
// "unknown" where that cannot be read.
func fsType(dir string) string {
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, fs := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		left, right, ok := strings.Cut(line, " - ")
		lf, rf := strings.Fields(left), strings.Fields(right)
		if !ok || len(lf) < 5 || len(rf) < 1 {
			continue
		}
		mp := lf[4]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fs = len(mp), rf[0]
		}
	}
	return fs
}
