package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// clocks matches what differs between two runs of one simulation: the
// report's timing rows and the trace's nanosecond stamps.
var clocks = regexp.MustCompile(`(?m)^  (p50 offer latency|p99 offer latency|wall clock) .*$|"(offer_ns|ns)":\d+`)

// TestFlagsAndFileAgree: the default flags and their own -writeconfig
// output fed back through -config are the same run — same report, same
// decision trace. -config used to be a second copy of the wiring, one
// that dropped the decision sink; both routes now reach one Build, and
// both honour -trace down to the no-schedule (F = -Inf) reject that used
// to abort the run.
func TestFlagsAndFileAgree(t *testing.T) {
	dir := t.TempDir()
	var cfg bytes.Buffer
	if err := run([]string{"-writeconfig"}, &cfg); err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "sim.json")
	if err := os.WriteFile(cfgPath, cfg.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	route := func(name string, args ...string) (report, trace string) {
		t.Helper()
		tracePath := filepath.Join(dir, name+".jsonl")
		var out bytes.Buffer
		if err := run(append(args, "-trace", tracePath), &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatalf("%s wrote no trace: %v", name, err)
		}
		return clocks.ReplaceAllString(out.String(), ""), clocks.ReplaceAllString(string(tr), "")
	}
	flagReport, flagTrace := route("flags")
	fileReport, fileTrace := route("file", "-config", cfgPath)

	if flagReport != fileReport {
		t.Errorf("reports differ:\nflags:\n%s\n-config:\n%s", flagReport, fileReport)
	}
	if !strings.Contains(flagReport, "social welfare") {
		t.Errorf("report has no accounting:\n%s", flagReport)
	}
	if flagTrace != fileTrace {
		t.Error("decision traces differ between the flags route and the -config route")
	}
	if !strings.Contains(flagTrace, `"reason":"no-schedule"`) {
		t.Error("trace holds no no-schedule outcome; the default workload should reject one bid with F = -Inf")
	}
}
