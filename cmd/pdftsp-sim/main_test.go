package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/pdftsp/pdftsp/internal/config"
)

// clocks matches what differs between two runs of one simulation: the
// report's timing rows and the trace's nanosecond stamps.
var clocks = regexp.MustCompile(`(?m)^  (p50 offer latency|p99 offer latency|wall clock) .*$|"(offer_ns|ns)":\d+`)

// flagsAndFile runs one simulation from its flags, then again from the
// -writeconfig output of those flags fed back through -config, and
// returns each route's report and decision trace with the clocks masked.
func flagsAndFile(t *testing.T, args ...string) (reports, traces [2]string) {
	t.Helper()
	dir := t.TempDir()
	var cfg bytes.Buffer
	if err := run(append(args, "-writeconfig"), &cfg); err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "sim.json")
	if err := os.WriteFile(cfgPath, cfg.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, route := range [][]string{args, {"-config", cfgPath}} {
		tracePath := filepath.Join(dir, fmt.Sprintf("route%d.jsonl", i))
		var out bytes.Buffer
		if err := run(append(route, "-trace", tracePath), &out); err != nil {
			t.Fatalf("%v: %v", route, err)
		}
		tr, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatalf("%v wrote no trace: %v", route, err)
		}
		reports[i], traces[i] = clocks.ReplaceAllString(out.String(), ""), clocks.ReplaceAllString(string(tr), "")
	}
	return reports, traces
}

// TestFlagsAndFileAgree: the default flags and their own -writeconfig
// output fed back through -config are the same run — same report, same
// decision trace. -config used to be a second copy of the wiring, one
// that dropped the decision sink; both routes now reach one WireWith, and
// both honour -trace down to the no-schedule (F = -Inf) reject that used
// to abort the run.
func TestFlagsAndFileAgree(t *testing.T) {
	reports, traces := flagsAndFile(t)
	if reports[0] != reports[1] {
		t.Errorf("reports differ:\nflags:\n%s\n-config:\n%s", reports[0], reports[1])
	}
	if !strings.Contains(reports[0], "social welfare") {
		t.Errorf("report has no accounting:\n%s", reports[0])
	}
	if traces[0] != traces[1] {
		t.Error("decision traces differ between the flags route and the -config route")
	}
	if !strings.Contains(traces[0], `"reason":"no-schedule"`) {
		t.Error("trace holds no no-schedule outcome; the default workload should reject one bid with F = -Inf")
	}
}

// TestBaselineNames: config wires only the pdFTSP family, so -algo eft,
// ntm and titan reach their schedulers through the figure side's switch
// on both routes, and a name neither knows is refused.
func TestBaselineNames(t *testing.T) {
	for _, algo := range []string{"eft", "ntm"} {
		reports, traces := flagsAndFile(t, "-algo", algo)
		if reports[0] != reports[1] || traces[0] != traces[1] {
			t.Errorf("-algo %s: flags and -config disagree:\n%s\n%s", algo, reports[0], reports[1])
		}
		if !strings.Contains(reports[0], "scheduler") || !strings.Contains(reports[0], strings.ToUpper(algo)) {
			t.Errorf("-algo %s ran another scheduler:\n%s", algo, reports[0])
		}
	}

	c := config.Default()
	c.Slots, c.Workload.RatePerSlot, c.Nodes = 12, 1, []config.NodeGroup{{GPU: "A100-80G", Count: 2}}
	c.Algorithm = config.Algorithm{Name: "titan", TitanBudgetMS: 20}
	var cfg bytes.Buffer
	if err := c.Save(&cfg); err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(t.TempDir(), "titan.json")
	if err := os.WriteFile(cfgPath, cfg.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-config", cfgPath}, &out); err != nil || !strings.Contains(out.String(), "Titan") {
		t.Errorf("-algo titan: %v\n%s", err, out.String())
	}

	if err := run([]string{"-algo", "fifo"}, io.Discard); err == nil || !strings.Contains(err.Error(), "fifo") {
		t.Errorf("-algo fifo ran (err %v)", err)
	}
}
