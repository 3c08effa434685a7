package service

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestAsyncCheckpointBackpressure covers the async pipeline's two
// contracts: a slot may not close while two writes are still in flight
// (the writer-stall case), and harvested write failures flip the broker
// into the same degraded mode the synchronous path enters — then clear
// with a forced full snapshot once writes land again.
func TestAsyncCheckpointBackpressure(t *testing.T) {
	t.Run("writer-stall-blocks-slot-close", func(t *testing.T) {
		const slots, nodes = 24, 2
		serve := newStack(t, slots, nodes, 1, 3)
		opts := serve.brokerOptions()
		opts.CheckpointPath = filepath.Join(t.TempDir(), "b.ckpt")
		opts.CheckpointEvery = 1
		opts.AsyncCheckpoint = true

		b, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		// Gate every write: the writer consumes one token per checkpoint,
		// so with zero tokens outstanding writes park inside the writer.
		gate := make(chan struct{}, slots+1)
		b.ckptStall = func(int, bool) { <-gate }
		if err := b.Start(); err != nil {
			t.Fatal(err)
		}

		// Slots 1 and 2 close freely: their writes stage without blocking
		// (inflight goes 1 then 2). Slot 3's close must park in the
		// backpressure loop until the slot-1 write lands.
		stepped := make(chan error, 1)
		go func() {
			_, err := b.Step(3)
			stepped <- err
		}()
		select {
		case err := <-stepped:
			t.Fatalf("Step(3) returned (%v) with both staged writes stalled; backpressure is not engaging", err)
		case <-time.After(200 * time.Millisecond):
		}

		gate <- struct{}{} // land the slot-1 write; slot 3 may now close
		select {
		case err := <-stepped:
			if err != nil {
				t.Fatalf("Step(3): %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Step(3) still blocked after releasing a write")
		}

		// Open the gate fully; the drain flushes the pipeline, so the
		// final checkpoint must be on disk and current.
		for i := 0; i < slots; i++ {
			gate <- struct{}{}
		}
		if _, err := b.Step(slots - 3); err != nil {
			t.Fatal(err)
		}
		if err := b.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		ck, err := ReadCheckpoint(opts.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Slot != slots {
			t.Fatalf("final checkpoint at slot %d, want %d", ck.Slot, slots)
		}
	})

	t.Run("degraded-flip-and-recovery", func(t *testing.T) {
		const slots, nodes = 24, 2
		serve := newStack(t, slots, nodes, 1, 9)
		// The checkpoint lives under a directory that does not exist yet:
		// every async write fails at the tmp-file stage until the test
		// creates it, then the forced full snapshot restates everything.
		dir := t.TempDir()
		sub := filepath.Join(dir, "not-yet")
		opts := serve.brokerOptions()
		opts.CheckpointPath = filepath.Join(sub, "b.ckpt")
		opts.CheckpointEvery = 1
		opts.CheckpointFullEvery = 4
		opts.AsyncCheckpoint = true

		b := startBroker(t, opts)
		// Each close stages a write whose failure is harvested a slot
		// later; after well past DegradeAfter (3) consecutive failures the
		// broker must report degraded — while still closing slots.
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
				// Completions harvest at the next close; keep stepping.
				if _, err := b.Step(1); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := waitStatus(func(st Status) bool { return st.Degraded }, "degraded")
		if st.CheckpointFailures < 3 { // DegradeAfter's default
			t.Fatalf("degraded with only %d recorded failures", st.CheckpointFailures)
		}
		if st.CheckpointError == "" {
			t.Fatalf("degraded without a checkpoint error: %+v", st)
		}

		// Restore writability: the next harvest clears the error, and the
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
		// reached; the flushed pipeline must leave it current on disk.
		ck, err := ReadCheckpoint(opts.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Slot < atSlot {
			t.Fatalf("final checkpoint at slot %d, stale vs slot %d at drain", ck.Slot, atSlot)
		}
	})
}
