package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pdftsp/pdftsp/internal/task"
)

// TestOpenDerivedNames holds Open's per-broker checkpoint path, journal
// path, run label, shard key and manifest location to the strings
// cmd/pdftspd's serve path, cmd/pdftspd-load and the -chaos/-wal-chaos
// harnesses (since folded into FuzzFleet) each spelled out by hand at the
// parent commit (be61a4d), recorded there: an existing -checkpoint
// directory must still restore. Two harness strings did move and are not
// in the table, neither of which outlives the process that wrote it:
// their temp-dir file names (shard<i>.ckpt, fleet.manifest) and the label
// of a harness fleet of one ("chaos/0", now "chaos").
func TestOpenDerivedNames(t *testing.T) {
	type names struct{ ckpt, wal, label, key string }
	for _, tc := range []struct {
		who, label string // RunLabel as the caller sets it
		manifest   string
		brokers    []names
	}{
		{"pdftspd", "", "", []names{{"state.json", "state.json.wal", "pdftspd", ""}}},
		{"pdftspd -shards 2", "", "state.json", []names{
			{"state.json.shard0", "state.json.shard0.wal", "pdftspd/0", "gpt2-small/0"},
			{"state.json.shard1", "state.json.shard1.wal", "pdftspd/1", "gpt2-small/1"},
		}},
		{"pdftspd-load", "pdftspd-load", "", []names{{"state.json", "state.json.wal", "pdftspd-load", ""}}},
		{"pdftspd-load -shards 3", "pdftspd-load", "state.json", []names{
			{"state.json.shard0", "state.json.shard0.wal", "pdftspd-load/0", "gpt2-small/0"},
			{"state.json.shard1", "state.json.shard1.wal", "pdftspd-load/1", "gpt2-small/1"},
			{"state.json.shard2", "state.json.shard2.wal", "pdftspd-load/2", "gpt2-small/2"},
		}},
		{"pdftspd -chaos 7 -shards 2", "chaos", "state.json", []names{
			{"state.json.shard0", "state.json.shard0.wal", "chaos/0", "gpt2-small/0"},
			{"state.json.shard1", "state.json.shard1.wal", "chaos/1", "gpt2-small/1"},
		}},
	} {
		opts := make([]Options, len(tc.brokers))
		for i := range opts {
			opts[i] = newStack(t, 4, 2, 1, 3).brokerOptions()
			opts[i].CheckpointPath, opts[i].WALPath, opts[i].RunLabel = "state.json", WALPath("state.json"), tc.label
		}
		a, err := Open(opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.who, err)
		}
		s, fleet := a.(*Shards)
		if fleet != (len(tc.brokers) > 1) {
			t.Fatalf("%s: %d broker(s) opened as %T", tc.who, len(tc.brokers), a)
		}
		if fleet && s.manifestPath != tc.manifest {
			t.Errorf("%s: manifest at %q, parent wrote %q", tc.who, s.manifestPath, tc.manifest)
		}
		for i, b := range a.Brokers() {
			got := names{ckpt: b.opts.CheckpointPath, wal: b.opts.WALPath, label: b.opts.RunLabel}
			if fleet {
				got.key = s.keys[i]
			}
			if got != tc.brokers[i] {
				t.Errorf("%s, broker %d: %+v, parent had %+v", tc.who, i, got, tc.brokers[i])
			}
		}
	}
	// A journal only ever forgets a bid behind a persisted checkpoint, so
	// one without a CheckpointPath is refused, whatever the shape.
	alone := func() Options {
		o := newStack(t, 4, 2, 1, 3).brokerOptions()
		o.WALPath = "x.wal"
		return o
	}
	for name, open := range map[string]func() error{
		"two brokers": func() error { _, err := Open(alone(), alone()); return err },
		"one broker":  func() error { _, err := Open(alone()); return err },
		"New":         func() error { _, err := New(alone()); return err },
	} {
		if err := open(); err == nil || !strings.Contains(err.Error(), "CheckpointPath") {
			t.Errorf("%s: a journal without a CheckpointPath opened (err %v)", name, err)
		}
	}
}

// TestResumeTable is Resume's whole contract: fleet shape × journal ×
// what the run left on disk → a fresh fleet, one resumed at slot s with r
// journaled bids re-held, or a refusal. The expectation is a function of
// the cell alone, so a one-broker and a two-broker fleet are held to the
// same answer wherever the cell means the same thing for both.
func TestResumeTable(t *testing.T) {
	const slots, killAt = 8, 3
	tasks := shardWorkload(t, slots, 4, 29)
	perSlot := bySlot(t, tasks, slots)
	decided := len(perSlot[0]) + len(perSlot[1]) + len(perSlot[2])
	acked := len(perSlot[killAt])
	if decided == 0 || acked == 0 {
		t.Fatalf("workload too thin: %d decided, %d acked", decided, acked)
	}

	open := func(base string, n int, journal bool, fullEvery int) Auctioneer {
		t.Helper()
		opts := make([]Options, n)
		for i := range opts {
			opts[i] = newShardStack(t, slots, 2, 29+int64(i), tasks).brokerOptions()
			opts[i].CheckpointPath, opts[i].CheckpointFullEvery = base, fullEvery
			if journal {
				opts[i].WALPath = WALPath(base)
			}
		}
		a, err := Open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	// run leaves behind what a fleet killed at slot upto does: slots below
	// it closed and checkpointed, its own bids acked and only journaled.
	run := func(base string, n int, journal bool, fullEvery, upto int) {
		t.Helper()
		a := open(base, n, journal, fullEvery)
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
		for s := 0; s <= upto; s++ {
			batch := append([]task.Task(nil), perSlot[s]...)
			if _, err := a.SubmitBatchAck(context.Background(), batch, make([]error, len(batch))); err != nil {
				t.Fatal(err)
			}
			if s < upto {
				if _, err := a.Step(1); err != nil {
					t.Fatal(err)
				}
			}
		}
		a.Kill()
	}
	remove := func(base string, suffixes ...string) {
		t.Helper()
		files, _ := filepath.Glob(base + "*")
		for _, f := range files {
			for _, suf := range suffixes {
				if strings.HasSuffix(f, suf) {
					if err := os.Remove(f); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}

	type outcome struct {
		refused           []string // any of these in the refusal; nil: not refused
		slot, decided     int
		replayed          int
		fromCheckpoint    bool
		fullEvery, shapes int // shapes: 0 both, else only that broker count
	}
	resumed := func(fullEvery int) func(bool) outcome {
		return func(journal bool) outcome {
			o := outcome{slot: killAt, decided: decided, fromCheckpoint: true, fullEvery: fullEvery}
			if journal {
				o.replayed = acked
			}
			return o
		}
	}
	cells := []struct {
		name    string
		prepare func(base string, n int, journal bool)
		want    func(journal bool) outcome
	}{
		{"nothing", func(string, int, bool) {}, func(bool) outcome { return outcome{} }},
		{"manifest only", func(base string, n int, journal bool) {
			run(base, n, journal, 1, 0) // died in slot 0: Start wrote the manifest, nothing closed
			remove(base, ".wal")
		}, func(bool) outcome { return outcome{shapes: 2} }},
		{"journal only", func(base string, n int, journal bool) {
			run(base, n, journal, 1, killAt)
			remove(base, ".ckpt", ".shard0", ".shard1", ".delta")
		}, func(journal bool) outcome {
			if journal {
				return outcome{replayed: acked}
			}
			return outcome{}
		}},
		{"full chain", func(base string, n int, journal bool) { run(base, n, journal, 1, killAt) }, resumed(1)},
		{"chain + deltas + journal", func(base string, n int, journal bool) { run(base, n, journal, 4, killAt) }, resumed(4)},
		{"one shard's checkpoint missing", func(base string, n int, journal bool) {
			run(base, n, journal, 4, killAt)
			remove(base, ".shard1", ".shard1.delta")
		}, func(bool) outcome { return outcome{refused: []string{"checkpoints missing"}, shapes: 2} }},
		{"shards at different slots", func(base string, n int, journal bool) {
			run(base, n, journal, 1, killAt)
			behind := filepath.Join(t.TempDir(), filepath.Base(base))
			run(behind, n, journal, 1, killAt-1)
			if err := os.Rename(behind+".shard1", base+".shard1"); err != nil {
				t.Fatal(err)
			}
		}, func(bool) outcome { return outcome{refused: []string{"checkpointed at slot"}, shapes: 2} }},
		{"manifest for a different shard count", func(base string, n int, journal bool) {
			run(base, n, journal, 1, killAt)
			// A three-shard run's manifest where this fleet's base path is:
			// for a fleet its own manifest's place, for one broker its
			// checkpoint's.
			m, _ := json.Marshal(shardManifest{Version: shardManifestVersion, Shards: 3, Slots: slots,
				Keys: []string{"gpt2-small/0", "gpt2-small/1", "gpt2-small/2"}})
			if err := os.WriteFile(base, m, 0o644); err != nil {
				t.Fatal(err)
			}
		}, func(bool) outcome {
			return outcome{refused: []string{"manifest has 3 shards", "a fleet manifest for 3 shards"}}
		}},
	}
	for _, cell := range cells {
		for _, journal := range []bool{false, true} {
			want := cell.want(journal)
			for _, n := range []int{1, 2} {
				if want.shapes != 0 && want.shapes != n {
					continue
				}
				name := cell.name + map[bool]string{false: ", no journal", true: ", journal"}[journal] +
					map[int]string{1: ", one broker", 2: ", two brokers"}[n]
				t.Run(name, func(t *testing.T) {
					base := filepath.Join(t.TempDir(), "run.ckpt")
					cell.prepare(base, n, journal)
					fullEvery := want.fullEvery
					if fullEvery == 0 {
						fullEvery = 1
					}
					a := open(base, n, journal, fullEvery)
					rep, err := a.Resume()
					if want.refused != nil {
						for _, why := range want.refused {
							if err != nil && strings.Contains(err.Error(), why) {
								return
							}
						}
						t.Fatalf("Resume: %+v, %v; want a refusal saying one of %q", rep, err, want.refused)
					}
					if err != nil {
						t.Fatal(err)
					}
					if got := (Resumed{want.slot, want.decided, want.replayed, want.fromCheckpoint}); rep != got {
						t.Fatalf("Resume reported %+v, want %+v", rep, got)
					}
					if err := a.Start(); err != nil {
						t.Fatal(err)
					}
					defer a.Kill()
					st, err := a.Status()
					if err != nil || st.Slot != want.slot || st.Decided != want.decided || st.Held != want.replayed {
						t.Fatalf("serving at slot %d with %d decided and %d held (err %v), want %d, %d, %d",
							st.Slot, st.Decided, st.Held, err, want.slot, want.decided, want.replayed)
					}
				})
			}
		}
	}
}
