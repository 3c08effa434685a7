package service

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestAsyncCheckpointBackpressure (the test floor pins the name; no writer
// is asynchronous) is the checkpoint writer's failure contract: real write
// failures flip the broker into degraded mode while slots keep closing,
// and once writes land again the error clears with a forced full snapshot.
func TestAsyncCheckpointBackpressure(t *testing.T) {
	t.Run("degraded-flip-and-recovery", func(t *testing.T) {
		const slots, nodes = 24, 2
		serve := newStack(t, slots, nodes, 1, 9)
		// The checkpoint lives under a directory that does not exist yet:
		// every write fails at the tmp-file stage until the test creates
		// it, then the forced full snapshot restates everything.
		dir := t.TempDir()
		sub := filepath.Join(dir, "not-yet")
		opts := serve.brokerOptions()
		opts.CheckpointPath = filepath.Join(sub, "b.ckpt")
		opts.CheckpointFullEvery = 4

		b := startBroker(t, opts)
		// Each close attempts a write that fails; well past degradeAfter (3)
		// consecutive failures the broker must report degraded — while
		// still closing slots.
		if _, err := b.Step(8); err != nil {
			t.Fatal(err)
		}
		waitStatus := func(pred func(Status) bool, what string) Status {
			t.Helper()
			deadline := time.Now().Add(5 * time.Second)
			for {
				st, err := b.Status()
				if err != nil {
					t.Fatal(err)
				}
				if pred(st) {
					return st
				}
				if time.Now().After(deadline) {
					t.Fatalf("status never became %s: %+v", what, st)
				}
				// The next write happens at the next close; keep stepping.
				if _, err := b.Step(1); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := waitStatus(func(st Status) bool { return st.Degraded }, "degraded")
		if st.CheckpointFailures < degradeAfter {
			t.Fatalf("degraded with only %d recorded failures", st.CheckpointFailures)
		}
		if st.CheckpointError == "" {
			t.Fatalf("degraded without a checkpoint error: %+v", st)
		}

		// Restore writability: the next write clears the error, and the
		// forced full snapshot (wroteFull was dropped on failure) re-keys
		// the chain — the file appears even though the full-every cadence
		// alone would have scheduled a delta.
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		st = waitStatus(func(st Status) bool { return !st.Degraded && st.CheckpointFailures == 0 }, "healthy")
		if st.CheckpointSlot < 0 {
			t.Fatalf("recovered but no checkpoint slot recorded: %+v", st)
		}
		if _, err := os.Stat(opts.CheckpointPath); err != nil {
			t.Fatalf("recovered without a full snapshot on disk: %v", err)
		}
		atSlot := st.Slot
		if err := b.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Drain forces one last full write at whatever slot the clock
		// reached; it must be current on disk.
		ck, _, err := readCheckpoint(opts.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Slot < atSlot {
			t.Fatalf("final checkpoint at slot %d, stale vs slot %d at drain", ck.Slot, atSlot)
		}
	})
}
