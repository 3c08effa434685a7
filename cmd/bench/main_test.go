package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/pdftsp/pdftsp/internal/benchsuite"
)

// pairsOf builds pairs whose base runs at 100 ns/op and whose change runs
// at the given ns/op.
func pairsOf(change ...float64) (base, chg []sample) {
	for _, ns := range change {
		base = append(base, sample{100})
		chg = append(chg, sample{ns})
	}
	return base, chg
}

// TestMajorityOfPairs: a row fails on ns/op only when the change is slower
// than the base beyond the tolerance in more than half of its pairs.
func TestMajorityOfPairs(t *testing.T) {
	for _, c := range []struct {
		name    string
		change  []float64
		slower  int
		regress bool
	}{
		{"tie", []float64{100, 100, 100, 100, 100}, 0, false},
		{"slower in exactly half", []float64{200, 200, 100, 100}, 2, false},
		{"slower in a majority, within tolerance", []float64{124, 124, 124, 90, 124}, 0, false},
		{"at the tolerance is not beyond it", []float64{125, 125, 125, 125, 125}, 0, false},
		{"beyond tolerance in a majority", []float64{126, 300, 80, 126, 90}, 3, true},
		{"beyond tolerance in a minority", []float64{300, 300, 80, 100, 90}, 2, false},
		{"no base", nil, 0, false},
	} {
		base, chg := pairsOf(c.change...)
		n, regress := slowerPairs(base, chg, 0.25)
		if n != c.slower || regress != c.regress {
			t.Errorf("%s: %d slower, regressed %v; want %d, %v", c.name, n, regress, c.slower, c.regress)
		}
	}
}

// TestRefusesAboveNumCPU: a row asked to run at more GOMAXPROCS than the
// host has CPUs is an error, and nothing runs.
func TestRefusesAboveNumCPU(t *testing.T) {
	log := filepath.Join(t.TempDir(), "ran")
	bin := fakeRunner(t, "ran", log, "echo 1 0 0")
	_, err := measure(bin, benchsuite.Bench{Name: "OfferPdFTSP"}, runtime.NumCPU()+1)
	if err == nil || !strings.Contains(err.Error(), "above this host's") {
		t.Fatalf("GOMAXPROCS NumCPU+1: err %v, want a refusal", err)
	}
	if _, err := os.Stat(log); err == nil {
		t.Fatal("the runner ran")
	}
}

// TestCheckAllocs holds B/op and allocs/op to the committed entry within
// the row's tolerances; a row that allocated nothing fails on one
// allocation.
func TestCheckAllocs(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want allocRow
		bytesTol  float64
		fails     int
	}{
		{"unchanged", allocRow{100, 10}, allocRow{100, 10}, 0.1, 0},
		{"0 to 1 allocation", allocRow{0, 1}, allocRow{0, 0}, 0.1, 1},
		{"0 to 8 bytes", allocRow{8, 0}, allocRow{0, 0}, 0.1, 1},
		{"B/op within 10%", allocRow{110, 10}, allocRow{100, 10}, 0.1, 0},
		{"B/op beyond 10%", allocRow{111, 10}, allocRow{100, 10}, 0.1, 1},
		{"B/op within a serving row's 30%", allocRow{130, 10}, allocRow{100, 10}, 0.3, 0},
		{"allocs/op beyond 10%, whatever the row", allocRow{100, 12}, allocRow{100, 10}, 0.3, 1},
		{"both", allocRow{200, 20}, allocRow{100, 10}, 0.1, 2},
		{"fewer is fine", allocRow{50, 5}, allocRow{100, 10}, 0.1, 0},
	} {
		if got := checkAllocs("row", c.got, c.want, c.bytesTol); len(got) != c.fails {
			t.Errorf("%s: %q, want %d failures", c.name, got, c.fails)
		}
	}
}

// TestAllocsFileCoversSuite: BENCH_allocs.json holds an entry for every
// row at every CPU and for every multi-core row at one, and nothing else.
func TestAllocsFileCoversSuite(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", allocsFile))
	if err != nil {
		t.Fatal(err)
	}
	var committed map[string]allocRow
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, bm := range benchsuite.Suite() {
		want = append(want, bm.Name)
		if bm.MultiCore {
			want = append(want, bm.Name+"@1")
		}
	}
	var have []string
	for label := range committed {
		have = append(have, label)
	}
	slices.Sort(want)
	slices.Sort(have)
	if !slices.Equal(have, want) {
		t.Fatalf("%s holds %q;\nthe suite has %q", allocsFile, have, want)
	}
}

// TestRunPairsInterleaves: the two sides alternate which runs first, and
// a row the base's suite lacks runs on the change's side alone.
func TestRunPairsInterleaves(t *testing.T) {
	log := filepath.Join(t.TempDir(), "order")
	bins := [2]string{fakeRunner(t, "base", log, "echo 100 0 0"), fakeRunner(t, "change", log, "echo 90 0 0")}
	runs, err := runPairs(benchsuite.Bench{Name: "row"}, 1, bins)
	if err != nil {
		t.Fatal(err)
	}
	order, _ := os.ReadFile(log)
	want := strings.Repeat("base\nchange\nchange\nbase\n", pairs/2) + "base\nchange\n"
	if string(order) != want || len(runs[0]) != pairs || len(runs[1]) != pairs || runs[1][0][0] != 90 {
		t.Fatalf("ran %q with %d base and %d change runs", order, len(runs[0]), len(runs[1]))
	}

	os.Remove(log)
	bins[0] = fakeRunner(t, "absent", log, "exit 3")
	if runs, err = runPairs(benchsuite.Bench{Name: "row"}, 1, bins); err != nil {
		t.Fatal(err)
	}
	order, _ = os.ReadFile(log)
	want = "absent\n" + strings.Repeat("change\n", pairs)
	if string(order) != want || runs[0] != nil || len(runs[1]) != pairs {
		t.Fatalf("absent base: ran %q, %d base runs", order, len(runs[0]))
	}
}

// fakeRunner writes a runner script that logs name to log, then runs body.
func fakeRunner(t *testing.T, name, log, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	script := "#!/bin/sh\necho " + name + " >> " + log + "\n" + body + "\n"
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}
