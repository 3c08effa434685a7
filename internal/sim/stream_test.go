package sim

import (
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/faults"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// updateGolden rewrites testdata/stream_*.golden.jsonl.gz from the current
// code. The adversarial golden was generated by the commit BEFORE the round
// engine existed (sim.Run's hand-written loop), so the engine is compared
// with the code it replaced, not only with itself. The chaos golden was
// re-recorded from the engine when the fallible vendor chain it also
// replayed was deleted; its outages did not move.
var updateGolden = flag.Bool("update-golden", false, "rewrite the event-stream goldens from the current code")

// streamWorkloads are the two runs whose full observer stream is pinned.
// internal/service's TestEventStreamThreeWay drives the same two through a
// broker and reads these goldens; keep the parameters in step with it.
var streamWorkloads = []struct {
	name         string
	slots, nodes int
	rate         float64
	seed         int64
	faulted      bool // chaos plan: outages + masked DP
	golden       string
}{
	{name: "adversarial-contention", slots: 16, nodes: 2, rate: 30, seed: 5, golden: "stream_adversarial.golden.jsonl.gz"},
	{name: "chaos-seed-7", slots: 24, nodes: 3, rate: 8, seed: 7, faulted: true, golden: "stream_chaos7.golden.jsonl.gz"},
}

// TestEventStreamGolden pins sim.Run's complete observer stream — RunStart,
// every Bid/Vendor/Dual/Payment/Outcome in emission order, Failure events,
// RunEnd — byte for byte.
func TestEventStreamGolden(t *testing.T) {
	for _, w := range streamWorkloads {
		t.Run(w.name, func(t *testing.T) {
			h := timeslot.NewHorizon(w.slots)
			tc := trace.DefaultConfig()
			tc.Seed, tc.Horizon, tc.RatePerSlot = w.seed, h, w.rate
			tasks, err := trace.Generate(tc)
			if err != nil {
				t.Fatal(err)
			}
			cl := simCluster(t, w.nodes, h)
			mkt, err := vendor.Standard(4, w.seed+7)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.CalibrateDuals(tasks, tc.Model, cl, mkt)
			opts.MaskFullCells = w.faulted
			sched, err := core.New(cl, opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			jsonl := obs.NewJSONL(&buf)
			cfg := Config{Model: tc.Model, Market: mkt, Observer: jsonl, RunLabel: "stream"}
			if w.faulted {
				for _, o := range faults.Generate(w.seed, w.nodes, w.slots).Outages {
					cfg.Failures = append(cfg.Failures, Failure{Node: o.Node, From: o.From, To: o.To})
				}
			}
			if _, err := Run(cl, sched, tasks, cfg); err != nil {
				t.Fatal(err)
			}
			if err := jsonl.Close(); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join("testdata", w.golden)
			if *updateGolden {
				var gz bytes.Buffer
				zw, _ := gzip.NewWriterLevel(&gz, gzip.BestCompression)
				zw.Write(buf.Bytes())
				if err := zw.Close(); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, gz.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want := readGzip(t, path)
			if msg := firstLineDiff(buf.Bytes(), want); msg != "" {
				t.Fatalf("event stream diverged from the pre-engine golden: %s", msg)
			}
		})
	}
}

func readGzip(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// firstLineDiff returns "" when got and want are byte-equal, else the first
// differing line of each.
func firstLineDiff(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(gl), len(wl))
}
