// Command bench gates internal/benchsuite. Each row runs pairs times a
// side, a process a run: with -base, the base revision's suite and this
// tree's, alternating which goes first. A row fails when its ns/op exceeds
// the base's by more than its tolerance in a majority of pairs, so host
// drift over time cannot fail it. B/op and allocs/op barely depend
// on the host: they are held to the committed BENCH_allocs.json.
//
//	go run ./cmd/bench -base HEAD^ [-run 'OfferPdFTSP|DecisionLog']
package main

import (
	"bytes"
	"cmp"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"github.com/pdftsp/pdftsp/internal/benchsuite"
)

// rowMain is written into the base tree: each side runs it over its suite.
//
//go:embed row/main.go
var rowMain []byte

const (
	rowPkg     = "github.com/pdftsp/pdftsp/cmd/bench/row"
	allocsFile = "BENCH_allocs.json"
	pairs      = 5 // runs a side; odd, so a majority exists
)

var errAbsent = errors.New("no such row") // in the base revision's suite

type sample [3]float64 // one run: ns/op, B/op, allocs/op

type allocRow struct {
	Bytes  float64 `json:"bytes_per_op"`
	Allocs float64 `json:"allocs_per_op"`
}

func main() {
	run := flag.String("run", "", "only rows whose name matches this regular expression")
	base := flag.String("base", "", "git revision to time every row against, in interleaved pairs")
	flag.Parse()
	failed, err := gate(*run, *base)
	if err != nil {
		failed = append(failed, err.Error())
	}
	if len(failed) > 0 {
		fmt.Printf("bench: %d failed:\n  %s\n", len(failed), strings.Join(failed, "\n  "))
		os.Exit(1)
	}
}

// gate runs the rows whose names match run and returns every regression.
func gate(run, base string) ([]string, error) {
	re, err := regexp.Compile(run)
	if err != nil {
		return nil, err
	}
	var committed map[string]allocRow
	data, err := os.ReadFile(allocsFile)
	if err == nil {
		err = json.Unmarshal(data, &committed)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", allocsFile, err)
	}
	dir, err := os.MkdirTemp("", "bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bins, err := build(base, dir)
	if err != nil {
		return nil, err
	}

	var failed []string
	fmt.Printf("%-34s %11s %11s %7s %6s %10s %9s\n", "row", "base ns/op", "ns/op", "Δ", "slower", "B/op", "allocs/op")
	for _, bm := range benchsuite.Suite() {
		for i, p := range []int{1, runtime.NumCPU()} { // a MultiCore row also at one, as name@1
			if !re.MatchString(bm.Name) || i == 0 && (!bm.MultiCore || p == runtime.NumCPU()) {
				continue
			}
			label := bm.Name
			if i == 0 {
				label += "@1"
			}
			runs, err := runPairs(bm, p, bins)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", label, err)
			}
			bs, cs := runs[0], runs[1]
			ns, got := median(cs, 0), allocRow{median(cs, 1), median(cs, 2)}
			bns, tol := math.NaN(), cmp.Or(bm.NsTol, benchsuite.NsTol) // NaN: no base
			if bs != nil {
				bns = median(bs, 0)
			}
			slower, regressed := slowerPairs(bs, cs, tol)
			fmt.Printf("%-34s %11.0f %11.0f %+6.1f%% %4d/%d %10.0f %9.0f\n",
				label, bns, ns, 100*(ns-bns)/bns, slower, len(bs), got.Bytes, got.Allocs)
			if regressed {
				failed = append(failed, fmt.Sprintf("%s ns/op: slower than the base by more than %.0f%% in %d of %d pairs",
					label, 100*tol, slower, len(bs)))
			}
			if want, ok := committed[label]; ok {
				failed = append(failed, checkAllocs(label, got, want, cmp.Or(bm.BytesTol, benchsuite.BytesTol))...)
			} else {
				failed = append(failed, label+": no entry in "+allocsFile)
			}
		}
	}
	return failed, nil
}

// build builds this tree's runner and, given a base revision, the base's
// from that revision's tree with this runner's source written in, under
// dir: bins[0] is the base's ("" without one), bins[1] this tree's.
func build(base, dir string) (bins [2]string, err error) {
	bins[1] = filepath.Join(dir, "change")
	script := `go build -trimpath -o "$2" ` + rowPkg
	if base != "" {
		bins[0] = filepath.Join(dir, "base.bin")
		script += ` && mkdir -p "$1/base/cmd/bench/row" && git archive "$0" | tar -x -C "$1/base" &&
			cat >"$1/base/cmd/bench/row/main.go" && cd "$1/base" && go build -trimpath -o "$3" ` + rowPkg
	}
	cmd := exec.Command("sh", "-c", script, base, dir, bins[1], bins[0])
	cmd.Stdin, cmd.Stdout, cmd.Stderr = bytes.NewReader(rowMain), os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return bins, fmt.Errorf("building the runners: %w", err)
	}
	return bins, nil
}

// runPairs runs bm at GOMAXPROCS procs pairs times a side, the base first
// in even pairs; runs[0] is nil without a base or when it lacks the row.
func runPairs(bm benchsuite.Bench, procs int, bins [2]string) (runs [2][]sample, err error) {
	for i := range 2 * pairs {
		side := (i + i/2) % 2 // base, change; change, base; ...
		if bins[side] == "" {
			continue
		}
		s, err := measure(bins[side], bm, procs)
		if side == 0 && errors.Is(err, errAbsent) {
			bins[0] = ""
			continue
		}
		if err != nil {
			return runs, err
		}
		runs[side] = append(runs[side], s)
	}
	return runs, nil
}

// measure runs bm once through the runner bin. A row asked to run at more
// GOMAXPROCS than the host has CPUs is refused: it would time contention.
func measure(bin string, bm benchsuite.Bench, procs int) (s sample, err error) {
	if procs > runtime.NumCPU() {
		return s, fmt.Errorf("GOMAXPROCS %d is above this host's %d CPUs", procs, runtime.NumCPU())
	}
	cmd := exec.Command(bin, bm.Name, strconv.Itoa(procs), cmp.Or(bm.Benchtime, benchsuite.Benchtime))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if ee := (*exec.ExitError)(nil); errors.As(err, &ee) && ee.ExitCode() == 3 {
		return s, errAbsent
	}
	if err == nil {
		_, err = fmt.Sscan(string(out), &s[0], &s[1], &s[2])
	}
	return s, err
}

// slowerPairs counts the pairs in which the change's ns/op exceeds the
// base's by more than tol, and reports whether they are a majority.
func slowerPairs(base, change []sample, tol float64) (n int, majority bool) {
	for i := range base {
		if change[i][0] > base[i][0]*(1+tol) {
			n++
		}
	}
	return n, 2*n > len(base)
}

// checkAllocs holds a row's B/op to its committed value within bytesTol
// and its allocs/op within benchsuite.AllocsTol.
func checkAllocs(label string, got, want allocRow, bytesTol float64) (failed []string) {
	if got.Bytes > want.Bytes*(1+bytesTol) {
		failed = append(failed, fmt.Sprintf("%s B/op %.0f > %.0f (+%.0f%% tolerance)", label, got.Bytes, want.Bytes, 100*bytesTol))
	}
	if got.Allocs > want.Allocs*(1+benchsuite.AllocsTol) {
		failed = append(failed, fmt.Sprintf("%s allocs/op %.0f > %.0f (+%.0f%% tolerance)", label, got.Allocs, want.Allocs, 100*benchsuite.AllocsTol))
	}
	return failed
}

// median is the middle of the samples' k-th measure.
func median(ss []sample, k int) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = s[k]
	}
	slices.Sort(xs)
	return xs[len(xs)/2]
}
