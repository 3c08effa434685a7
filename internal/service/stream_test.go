package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
)

// TestEventStreamThreeWay checks what the benchmark's span builder depends
// on: the complete observer stream — not only decisions and accounting —
// is byte-identical between a broker, sim.Run and the golden that
// internal/sim's TestEventStreamGolden pins against the pre-engine code
// (its adversarial workload; keep the parameters in step with it). It
// packs ~30 bids per slot onto 2 nodes, so nearly every bid prices
// against duals the previous one just moved. internal/sim's chaos golden
// routes outages and refunds through the round, which a served broker's
// fixed capacity never does. Each pair is also held to DiffTwins, final
// duals and final ledger.
func TestEventStreamThreeWay(t *testing.T) {
	for _, w := range []struct {
		name         string
		slots, nodes int
		rate         float64
		seed         int64
		golden       string
	}{
		{name: "adversarial-contention", slots: 16, nodes: 2, rate: 30, seed: 5, golden: "stream_adversarial.golden.jsonl.gz"},
	} {
		t.Run(w.name, func(t *testing.T) {
			// record runs one engine over a fresh stack and returns the
			// stack and its stream.
			record := func(drive func(st *testStack, o obs.Observer)) (*testStack, []byte) {
				st := newStack(t, w.slots, w.nodes, w.rate, w.seed)
				var buf bytes.Buffer
				jsonl := obs.NewJSONL(&buf)
				drive(st, jsonl)
				if err := jsonl.Close(); err != nil {
					t.Fatal(err)
				}
				return st, buf.Bytes()
			}
			var b *Broker
			serve, got := record(func(st *testStack, o obs.Observer) {
				opts := st.brokerOptions()
				opts.Observer, opts.RunLabel = o, "stream"
				b = startBroker(t, opts)
				ackAll(t, b, st.tasks, 6)
				if _, err := b.Step(w.slots); err != nil {
					t.Fatal(err)
				}
				for _, tk := range st.tasks {
					decided(t, b, tk.ID)
				}
				if err := b.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
			})
			var res *sim.Result
			twin, want := record(func(st *testStack, o obs.Observer) {
				var err error
				res, err = sim.Run(st.cl, st.sched, st.tasks, sim.Config{
					Model: st.model, Market: st.mkt,
					Observer: o, RunLabel: "stream", CollectDecisions: true,
				})
				if err != nil {
					t.Fatal(err)
				}
			})
			if bytes.Count(want, []byte("\n")) < 1000 {
				t.Fatalf("sim.Run stream has only %d events; the comparison is vacuous", bytes.Count(want, []byte("\n")))
			}
			if msg := firstLineDiff(want, readGzip(t, filepath.Join("..", "sim", "testdata", w.golden))); msg != "" {
				t.Fatalf("sim.Run stream diverges from the golden at %s", msg)
			}
			if msg := firstLineDiff(got, want); msg != "" {
				t.Fatalf("broker stream diverges from sim.Run at %s", msg)
			}
			if err := DiffTwins(b, serve.tasks, func(int, []task.Task) (*sim.Result, error) { return res, nil }); err != nil {
				t.Fatalf("broker vs sim.Run: %v", err)
			}
			if !reflect.DeepEqual(serve.sched.SnapshotDuals(), twin.sched.SnapshotDuals()) {
				t.Fatal("final dual prices diverge from the sequential replay")
			}
			if !reflect.DeepEqual(serve.cl.Snapshot(), twin.cl.Snapshot()) {
				t.Fatal("final cluster ledgers diverge from the sequential replay")
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

// firstLineDiff returns "" when got and want are byte-equal, else the
// first differing line of each.
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
	return fmt.Sprintf("line count: got %d, want %d", len(gl), len(wl))
}
