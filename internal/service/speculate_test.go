package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/pdftsp/pdftsp/internal/faults"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// specCompare diffs a finished speculative broker against its sequential
// sim.Run ground truth: every decision, the run accounting, the final
// dual prices, and the cluster ledger must be bit-identical.
func specCompare(t *testing.T, b *Broker, serve, twin *testStack, want *sim.Result) {
	t.Helper()
	if msg := b.DiffTwin(serve.tasks, want); msg != "" {
		t.Fatalf("speculative broker vs sequential sim: %s", msg)
	}
	if !serve.sched.SnapshotDuals().Equal(twin.sched.SnapshotDuals()) {
		t.Fatal("final dual prices diverge from the sequential replay")
	}
	if !reflect.DeepEqual(serve.cl.Snapshot(), twin.cl.Snapshot()) {
		t.Fatal("final cluster ledgers diverge from the sequential replay")
	}
}

// TestSpeculativeSlotCloseEquivalence is the tentpole's acceptance test:
// a broker closing slots through the speculative parallel round must be
// bit-identical — decisions, duals, ledger, welfare — to the sequential
// path, which itself equals sim.Run. The workloads are adversarial by
// construction: many bids per slot contending for the same few nodes, so
// nearly every tentative offer prices against duals an earlier commit
// just moved, maximizing validation conflicts. Run under -race: the
// worker fan-out and the commit loop share the scheduler's frozen state.
func TestSpeculativeSlotCloseEquivalence(t *testing.T) {
	t.Run("adversarial-contention", func(t *testing.T) {
		// 2 nodes at rate 30 → slot batches of ~30 bids fighting over the
		// same capacity: dual updates and capacity rejects on every close.
		const slots, nodes, workers = 16, 2, 8
		const rate = 30.0
		serve := newStack(t, slots, nodes, rate, 5)
		twin := newStack(t, slots, nodes, rate, 5)

		opts := serve.brokerOptions()
		opts.SpecWorkers = 4
		b := startBroker(t, opts)
		chans := submitAll(t, b, serve.tasks, workers)
		if _, err := b.Step(slots); err != nil {
			t.Fatal(err)
		}
		for i := range serve.tasks {
			if out := <-chans[i]; out.Err != nil {
				t.Fatalf("task %d: %v", serve.tasks[i].ID, out.Err)
			}
		}
		if err := b.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}

		want := replay(t, twin)
		specCompare(t, b, serve, twin, want)

		hits, misses := b.spec.Stats()
		if hits+misses == 0 {
			t.Fatal("speculative round never ran; the test is vacuous")
		}
		if misses == 0 {
			t.Fatal("adversarial workload produced zero validation conflicts; contention is not being exercised")
		}
		t.Logf("speculation: %d hits, %d misses (%.1f%% hit rate)",
			hits, misses, 100*float64(hits)/float64(hits+misses))
	})

	// The chaos seeds route outages, vendor fault windows, and refund
	// flips through the speculative round — the paths where a stale
	// tentative decision would corrupt refunds or the fault tracker.
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("chaos-seed-%d", seed), func(t *testing.T) {
			const slots, nodes, workers = 24, 3, 6
			const rate = 8.0
			plan := faults.Generate(seed, nodes, slots, 4)
			var failures []sim.Failure
			for _, o := range plan.Outages {
				failures = append(failures, sim.Failure{Node: o.Node, From: o.From, To: o.To})
			}

			serve := newFaultStack(t, slots, nodes, rate, seed)
			twin := newFaultStack(t, slots, nodes, rate, seed)

			opts := serve.brokerOptions()
			opts.SpecWorkers = 4
			opts.Failures = failures
			opts.Quotes = faultQuotes(serve, plan.Vendor)
			b := startBroker(t, opts)
			chans := submitAll(t, b, serve.tasks, workers)
			if _, err := b.Step(slots); err != nil {
				t.Fatal(err)
			}
			for i := range serve.tasks {
				if out := <-chans[i]; out.Err != nil {
					t.Fatalf("task %d: %v", serve.tasks[i].ID, out.Err)
				}
			}
			if err := b.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}

			want, err := sim.Run(twin.cl, twin.sched, twin.tasks, sim.Config{
				Model: twin.model, Market: twin.mkt,
				Failures: failures, Quotes: faultQuotes(twin, plan.Vendor),
				CollectDecisions: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			specCompare(t, b, serve, twin, want)
		})
	}

	t.Run("two-shard-fleet", func(t *testing.T) {
		// A speculative 2-shard fleet against its sequential twin fleet:
		// the router must feed both identically, and each shard's
		// speculative round must commit what its sequential twin decides.
		const slots, shards, nodesPerShard = 24, 2, 2
		tasks := shardWorkload(t, slots, 10, 17)

		mk := func(specWorkers int) (*Shards, []*testStack) {
			stacks := make([]*testStack, shards)
			specs := make([]ShardSpec, shards)
			for i := range stacks {
				stacks[i] = newShardStack(t, slots, nodesPerShard, 17+int64(i), tasks)
				o := stacks[i].brokerOptions()
				o.SpecWorkers = specWorkers
				specs[i] = ShardSpec{Key: filepath.Join("gpt2-small", string(rune('0'+i))), Options: o}
			}
			s, err := NewShards(ShardsOptions{}, specs...)
			if err != nil {
				t.Fatalf("NewShards: %v", err)
			}
			if err := s.Start(); err != nil {
				t.Fatalf("Start: %v", err)
			}
			driveShards(t, s, slots, tasks)
			if err := s.Drain(context.Background()); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			return s, stacks
		}
		spec, specStacks := mk(4)
		seq, seqStacks := mk(0)

		for _, tk := range tasks {
			got, gi, ok := shardDecision(t, spec, tk.ID)
			if !ok {
				t.Fatalf("speculative fleet lost decision %d", tk.ID)
			}
			want, wi, ok := shardDecision(t, seq, tk.ID)
			if !ok {
				t.Fatalf("sequential fleet lost decision %d", tk.ID)
			}
			if gi != wi {
				t.Fatalf("task %d routed to shard %d speculative, %d sequential", tk.ID, gi, wi)
			}
			if msg := sim.DiffDecisions(&got, &want, false); msg != "" {
				t.Fatalf("task %d (shard %d): %s", tk.ID, gi, msg)
			}
		}
		for i := 0; i < shards; i++ {
			if msg := sim.DiffResults(spec.Results()[i], seq.Results()[i]); msg != "" {
				t.Fatalf("shard %d accounting diverged (%s)", i, msg)
			}
			if !specStacks[i].sched.SnapshotDuals().Equal(seqStacks[i].sched.SnapshotDuals()) {
				t.Fatalf("shard %d duals diverged between speculative and sequential fleets", i)
			}
			if !reflect.DeepEqual(specStacks[i].cl.Snapshot(), seqStacks[i].cl.Snapshot()) {
				t.Fatalf("shard %d ledgers diverged between speculative and sequential fleets", i)
			}
		}
		st, err := spec.Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.SpecHits+st.SpecMisses == 0 {
			t.Fatal("fleet status reports no speculative activity")
		}
	})
}

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

// TestEventStreamThreeWay checks what Options.SpecWorkers promises and the
// benchmark's span builder depends on: the complete observer stream — not
// only decisions and accounting — is byte-identical between sim.Run, a
// sequential broker and a speculative broker. Both workloads are the ones
// internal/sim's TestEventStreamGolden pins against the pre-engine code.
func TestEventStreamThreeWay(t *testing.T) {
	for _, w := range []struct {
		name         string
		slots, nodes int
		rate         float64
		seed         int64
		faulted      bool
	}{
		{name: "adversarial-contention", slots: 16, nodes: 2, rate: 30, seed: 5},
		{name: "chaos-seed-7", slots: 24, nodes: 3, rate: 8, seed: 7, faulted: true},
	} {
		t.Run(w.name, func(t *testing.T) {
			var failures []sim.Failure
			var plan faults.Plan
			if w.faulted {
				plan = faults.Generate(w.seed, w.nodes, w.slots, 4)
				for _, o := range plan.Outages {
					failures = append(failures, sim.Failure{Node: o.Node, From: o.From, To: o.To})
				}
			}
			// record runs one engine over a fresh stack and returns its stream.
			record := func(drive func(st *testStack, quotes vendor.Caller, o obs.Observer)) []byte {
				st := newStack(t, w.slots, w.nodes, w.rate, w.seed)
				var quotes vendor.Caller
				if w.faulted {
					st = newFaultStack(t, w.slots, w.nodes, w.rate, w.seed)
					quotes = faultQuotes(st, plan.Vendor)
				}
				var buf bytes.Buffer
				jsonl := obs.NewJSONL(&buf)
				drive(st, quotes, jsonl)
				if err := jsonl.Close(); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			broker := func(specWorkers int) []byte {
				return record(func(st *testStack, quotes vendor.Caller, o obs.Observer) {
					opts := st.brokerOptions()
					opts.SpecWorkers, opts.Failures, opts.Quotes = specWorkers, failures, quotes
					opts.Observer, opts.RunLabel = o, "stream"
					b := startBroker(t, opts)
					chans := submitAll(t, b, st.tasks, 6)
					if _, err := b.Step(w.slots); err != nil {
						t.Fatal(err)
					}
					for i := range st.tasks {
						if out := <-chans[i]; out.Err != nil {
							t.Fatalf("task %d: %v", st.tasks[i].ID, out.Err)
						}
					}
					if err := b.Drain(context.Background()); err != nil {
						t.Fatal(err)
					}
				})
			}
			want := record(func(st *testStack, quotes vendor.Caller, o obs.Observer) {
				if _, err := sim.Run(st.cl, st.sched, st.tasks, sim.Config{
					Model: st.model, Market: st.mkt, Failures: failures, Quotes: quotes,
					Observer: o, RunLabel: "stream",
				}); err != nil {
					t.Fatal(err)
				}
			})
			if bytes.Count(want, []byte("\n")) < 1000 {
				t.Fatalf("sim.Run stream has only %d events; the comparison is vacuous", bytes.Count(want, []byte("\n")))
			}
			for name, got := range map[string][]byte{"sequential": broker(0), "speculative": broker(4)} {
				if !bytes.Equal(got, want) {
					gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
					for i := 0; i < len(gl) && i < len(wl); i++ {
						if !bytes.Equal(gl[i], wl[i]) {
							t.Fatalf("%s broker stream diverges from sim.Run at line %d:\n got  %s\n want %s", name, i+1, gl[i], wl[i])
						}
					}
					t.Fatalf("%s broker stream has %d lines, sim.Run %d", name, len(gl), len(wl))
				}
			}
		})
	}
}
