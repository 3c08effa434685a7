package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/service"
	"github.com/pdftsp/pdftsp/internal/trace"
)

// smallStack is the seconds-long stack the serve-path tests run on: the
// flag defaults of main() cut to 24 slots at three bids a slot, on two
// nodes a broker (four for a lone broker).
func smallStack(t *testing.T, n int) config.Config {
	t.Helper()
	cfg := config.Default()
	cfg.Slots = 24
	cfg.Workload.RatePerSlot = 3
	nodes := 4
	if n > 1 {
		nodes = 2 * n
	}
	var err error
	if cfg.Nodes, err = config.Mix("hybrid", nodes); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestRestoreFlag drives main()'s build path through a drain and a
// -restore: the run resumes at the drained slot for either shape, and
// -restore with nothing on disk is refused unless a journal could have
// been all the run left behind. -wal and -restore without -checkpoint are
// refused before anything is opened.
func TestRestoreFlag(t *testing.T) {
	for _, c := range []struct {
		name string
		so   serveOpts
	}{
		{"wal-without-checkpoint", serveOpts{virtual: true, wal: true}},
		{"restore-without-checkpoint", serveOpts{virtual: true, restore: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := buildAuctioneer(smallStack(t, 1), 1, c.so)
			if err == nil || !strings.Contains(err.Error(), "requires -checkpoint") {
				t.Fatalf("err %v, want a refusal naming -checkpoint", err)
			}
		})
	}
	for _, n := range []int{1, 2} {
		for _, wal := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards-%d-wal-%v", n, wal), func(t *testing.T) {
				cfg := smallStack(t, n)
				so := serveOpts{
					virtual: true, queue: 64, fullEvery: 2, wal: wal,
					ckpt: filepath.Join(t.TempDir(), "state.json"),
				}
				restore := so
				restore.restore = true
				if _, err := buildAuctioneer(cfg, n, restore); (err == nil) != wal {
					t.Fatalf("-restore on an empty directory: err %v with -wal=%v", err, wal)
				}
				a, err := buildAuctioneer(cfg, n, so)
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Start(); err != nil {
					t.Fatal(err)
				}
				if _, err := a.Step(3); err != nil {
					t.Fatal(err)
				}
				if err := a.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				b, err := buildAuctioneer(cfg, n, restore)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.Start(); err != nil {
					t.Fatal(err)
				}
				defer b.Kill()
				if slot, err := b.Brokers()[0].Slot(); err != nil || slot != 3 {
					t.Fatalf("restored at slot %d, err %v; want 3", slot, err)
				}
			})
		}
	}
}

// TestSupervisedSlotZeroCrash: a run killed before its first slot close,
// then restarted by a process supervisor with -restore, through main()'s
// build path. With -wal it resumes at slot 0; without it -restore is
// refused the same way for either shape (a fleet's Start wrote its
// manifest, which is not a checkpoint).
func TestSupervisedSlotZeroCrash(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			cfg := smallStack(t, n)
			for _, wal := range []bool{false, true} {
				so := serveOpts{
					virtual: true, queue: 64, fullEvery: 1, wal: wal,
					ckpt: filepath.Join(t.TempDir(), "state.json"),
				}
				a, err := buildAuctioneer(cfg, n, so)
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Start(); err != nil {
					t.Fatal(err)
				}
				a.Kill()
				restore := so
				restore.restore = true
				b, err := buildAuctioneer(cfg, n, restore)
				if !wal {
					if want := "-restore: no checkpoint at " + so.ckpt; err == nil || err.Error() != want {
						t.Fatalf("-restore after a slot-0 kill without -wal: err %v, want %q", err, want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("-wal -restore after a slot-0 kill: %v", err)
				}
				if err := b.Start(); err != nil {
					t.Fatal(err)
				}
				slot, err := b.Brokers()[0].Slot()
				h := b.Health()
				b.Kill()
				if err != nil || slot != 0 || h.Status != "ok" {
					t.Fatalf("-wal -restore after a slot-0 kill: slot %d (err %v), health %+v; want slot 0, ok", slot, err, h)
				}
			}
		})
	}
}

// TestRestoreKeepsSinks: a -restore restart extends the -decision-log and
// -trace files the killed process left instead of truncating them. Each is
// cut behind its last whole frame or line, so a tail the kill tore goes,
// and the log then reads as the first run's records followed by the
// second run's, every bid once. A file at the -decision-log path that is
// not a decision log is refused and left as it is.
func TestRestoreKeepsSinks(t *testing.T) {
	cfg := smallStack(t, 1)
	tasks, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	perSlot, err := trace.BySlot(tasks, cfg.Slots)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tracePath, logPath := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "decisions.log")
	so := serveOpts{virtual: true, queue: 256, fullEvery: 1, wal: true, ckpt: filepath.Join(dir, "state.ckpt")}
	// run opens the sinks and a fleet over them, offers slots [from, to)
	// and closes each.
	run := func(restore bool, from, to int) (service.Auctioneer, *obs.JSONL, *obs.DecisionLog) {
		j, d, err := openSinks(tracePath, logPath, restore)
		if err != nil {
			t.Fatal(err)
		}
		o := so
		o.restore, o.observer = restore, obs.Multi(j, d)
		a, err := buildAuctioneer(cfg, 1, o)
		if err == nil {
			err = a.Start()
		}
		if err != nil {
			t.Fatal(err)
		}
		for s := from; s < to; s++ {
			verdicts := make([]error, len(perSlot[s]))
			if _, err := a.SubmitBatchAck(context.Background(), perSlot[s], verdicts); err != nil || errors.Join(verdicts...) != nil {
				t.Fatalf("slot %d: %v %v", s, err, errors.Join(verdicts...))
			}
			if _, err := a.Step(1); err != nil {
				t.Fatal(err)
			}
		}
		return a, j, d
	}
	readLog := func() (obs.DecisionLogSummary, []obs.DecisionRecord, error) {
		f, err := os.Open(logPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		return obs.ReadDecisionLog(f)
	}
	appendTo := func(path, tail string) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err == nil {
			_, err = f.WriteString(tail)
			f.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	const killAt = 10
	a, j, d := run(false, 0, killAt)
	a.Kill()
	// A killed process's buffers are lost; flushing them here stands in
	// for the bytes it had already handed to the kernel. Then the kill
	// tears a frame and a line.
	if err := errors.Join(j.Close(), d.Close()); err != nil {
		t.Fatal(err)
	}
	_, first, err := readLog()
	if err != nil || len(first) == 0 {
		t.Fatalf("the first run logged %d records (err %v)", len(first), err)
	}
	appendTo(logPath, "\x40\x00torn")
	appendTo(tracePath, `{"ev":"bid","se`)

	a, j, d = run(true, killAt, cfg.Slots)
	if err := a.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(j.Close(), d.Close()); err != nil {
		t.Fatal(err)
	}
	sum, recs, err := readLog()
	if err != nil || !sum.Ended || len(recs) != len(tasks) || !reflect.DeepEqual(recs[:len(first)], first) {
		t.Fatalf("after the restart the log reads %d records, ended %v (err %v); want the first run's %d, then the rest of the %d",
			len(recs), sum.Ended, err, len(first), len(tasks))
	}
	seen := map[int]bool{}
	for _, r := range recs {
		if seen[r.TaskID] {
			t.Fatalf("bid %d logged twice", r.TaskID)
		}
		seen[r.TaskID] = true
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	starts := 0
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var ev struct{ Ev string }
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if ev.Ev == obs.KindRunStart {
			starts++
		}
	}
	if starts != 2 {
		t.Fatalf("the trace holds %d run starts, want one a process", starts)
	}

	notALog := []byte("not a decision log\n")
	if err := os.WriteFile(logPath, notALog, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openSinks("", logPath, true); err == nil || !strings.Contains(err.Error(), "not a decision log") {
		t.Fatalf("-restore over a file that is not a decision log: err %v", err)
	}
	if got, err := os.ReadFile(logPath); err != nil || !bytes.Equal(got, notALog) {
		t.Fatalf("the refused file now holds %q (err %v)", got, err)
	}
}
