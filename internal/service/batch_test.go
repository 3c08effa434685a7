package service

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/decision"
	"github.com/pdftsp/pdftsp/internal/task"
)

// TestBatchConcurrentEquivalence is the batched twin of
// TestConcurrentEquivalence: the same workload fanned in as coalesced
// SubmitBatch calls from several goroutines must yield outcomes,
// accounting, duals, and ledger bit-identical to the sequential batch
// replay. Run it under -race.
func TestBatchConcurrentEquivalence(t *testing.T) {
	const slots, nodes, chunk = 24, 4, 37
	const rate = 52.0
	serve := newStack(t, slots, nodes, rate, 11)
	twin := newStack(t, slots, nodes, rate, 11)
	b := startBroker(t, serve.brokerOptions())

	type span struct{ lo, hi int }
	var spans []span
	for lo := 0; lo < len(serve.tasks); lo += chunk {
		hi := lo + chunk
		if hi > len(serve.tasks) {
			hi = len(serve.tasks)
		}
		spans = append(spans, span{lo, hi})
	}
	outcomes := make([][]Outcome, len(spans))
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for i, sp := range spans {
		wg.Add(1)
		go func(i int, sp span) {
			defer wg.Done()
			outcomes[i], errs[i] = b.SubmitBatch(context.Background(), serve.tasks[sp.lo:sp.hi])
		}(i, sp)
	}

	// SubmitBatch blocks until its bids' slots close, so the main
	// goroutine waits for every batch to land in the held queue before
	// advancing the clock past the arrivals.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := b.Status()
		if err != nil {
			t.Fatalf("Status: %v", err)
		}
		if st.Held == len(serve.tasks) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batches never fully held: %d of %d", st.Held, len(serve.tasks))
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := b.Step(slots); err != nil {
		t.Fatalf("Step: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}

	want := replay(t, twin)
	for i, sp := range spans {
		for j, out := range outcomes[i] {
			if out.Err != nil {
				t.Fatalf("task %d: %v", serve.tasks[sp.lo+j].ID, out.Err)
			}
			w := want.Decisions[sp.lo+j]
			if out.Decision.Admitted != w.Admitted || out.Decision.Payment() != w.Payment() || out.Decision.Reason != w.Reason {
				t.Fatalf("task %d: batch (admitted=%v payment=%v %q) vs replay (admitted=%v payment=%v %q)",
					serve.tasks[sp.lo+j].ID, out.Decision.Admitted, out.Decision.Payment(), out.Decision.Reason,
					w.Admitted, w.Payment(), w.Reason)
			}
		}
	}

	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	res := b.Result()
	if res.Welfare != want.Welfare || res.Revenue != want.Revenue ||
		res.Admitted != want.Admitted || res.Rejected != want.Rejected {
		t.Fatalf("accounting: batch welfare=%v revenue=%v %d/%d, replay welfare=%v revenue=%v %d/%d",
			res.Welfare, res.Revenue, res.Admitted, res.Rejected,
			want.Welfare, want.Revenue, want.Admitted, want.Rejected)
	}
	if !reflect.DeepEqual(serve.sched.SnapshotDuals(), twin.sched.SnapshotDuals()) {
		t.Fatal("final dual prices diverge from the sequential replay")
	}
	if !reflect.DeepEqual(serve.cl.Snapshot(), twin.cl.Snapshot()) {
		t.Fatal("final cluster ledgers diverge from the sequential replay")
	}

	st, err := b.Status()
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.HeldHighWater != len(serve.tasks) {
		t.Fatalf("held high water %d, want %d (everything was held before the first step)", st.HeldHighWater, len(serve.tasks))
	}
	if st.Decided != len(serve.tasks) {
		t.Fatalf("decided %d, want %d", st.Decided, len(serve.tasks))
	}
	if st.ShedChannelFull != 0 || st.ShedHeldFull != 0 {
		t.Fatalf("unexpected shedding: channel=%d held=%d", st.ShedChannelFull, st.ShedHeldFull)
	}
}

// TestBatchAckOutlivesContext is the regression test for the
// fire-and-forget commit rule: SubmitBatchAck's bids are committed at
// the ack, so canceling the submitter's context afterwards (an HTTP
// handler's request context dies with the response) must not cancel
// the held bids.
func TestBatchAckOutlivesContext(t *testing.T) {
	const slots, nodes = 24, 4
	const rate = 6.0
	serve := newStack(t, slots, nodes, rate, 11)
	twin := newStack(t, slots, nodes, rate, 11)
	b := startBroker(t, serve.brokerOptions())

	ctx, cancel := context.WithCancel(context.Background())
	verdicts := make([]error, len(serve.tasks))
	held, err := b.SubmitBatchAck(ctx, serve.tasks, verdicts)
	cancel() // the "handler returned": every request-scoped ctx is now dead
	if err != nil {
		t.Fatalf("SubmitBatchAck: %v", err)
	}
	if held != len(serve.tasks) {
		t.Fatalf("held %d of %d", held, len(serve.tasks))
	}
	for i, v := range verdicts {
		if v != nil {
			t.Fatalf("task %d verdict: %v", serve.tasks[i].ID, v)
		}
	}
	if _, err := b.Step(slots); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	want := replay(t, twin)
	for i, tk := range serve.tasks {
		got, ok, err := b.DecisionFor(tk.ID)
		if err != nil || !ok {
			t.Fatalf("task %d undecided after canceled ctx (ok=%v err=%v)", tk.ID, ok, err)
		}
		w := want.Decisions[i]
		if got.Admitted != w.Admitted || got.Payment() != w.Payment() || got.Reason != w.Reason {
			t.Fatalf("task %d diverges from replay", tk.ID)
		}
	}
	res := b.Result()
	if res.Welfare != want.Welfare || res.Admitted != want.Admitted {
		t.Fatalf("accounting diverges: welfare=%v admitted=%d, want %v/%d",
			res.Welfare, res.Admitted, want.Welfare, want.Admitted)
	}
	st, _ := b.Status()
	if st.Canceled != 0 {
		t.Fatalf("%d bids canceled; the ack-form must not inherit the request ctx", st.Canceled)
	}
}

// TestBatchIntakeVerdicts covers per-bid refusals inside one batch: a
// refusal rides in that bid's verdict slot without failing the rest,
// and the shed tallies in Status account for it.
func TestBatchIntakeVerdicts(t *testing.T) {
	s := newStack(t, 12, 2, 2, 5)
	opts := s.brokerOptions()
	opts.QueueSize = 4
	b := startBroker(t, opts)
	defer b.Kill()

	bid := func(id int) task.Task {
		return task.Task{ID: id, Arrival: 3, Deadline: 10, Work: 5, MemGB: 2, Batch: 8, Bid: 5}
	}
	batch := []task.Task{bid(0), bid(1), bid(0), bid(2), bid(3), bid(4), bid(5)}
	verdicts := make([]error, len(batch))
	held, err := b.SubmitBatchAck(context.Background(), batch, verdicts)
	if err != nil {
		t.Fatalf("SubmitBatchAck: %v", err)
	}
	if held != 4 {
		t.Fatalf("held %d, want 4 (queue capacity)", held)
	}
	for i := range []int{0, 1} {
		if verdicts[i] != nil {
			t.Fatalf("bid %d refused: %v", i, verdicts[i])
		}
	}
	if !errors.Is(verdicts[2], ErrDuplicateID) {
		t.Fatalf("duplicate in-batch ID: got %v", verdicts[2])
	}
	if verdicts[3] != nil || verdicts[4] != nil {
		t.Fatalf("bids 3/4 refused: %v, %v", verdicts[3], verdicts[4])
	}
	for _, i := range []int{5, 6} {
		if !errors.Is(verdicts[i], ErrHeldFull) {
			t.Fatalf("over-capacity bid %d: got %v, want ErrHeldFull", i, verdicts[i])
		}
	}
	st, err := b.Status()
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Held != 4 || st.HeldHighWater != 4 {
		t.Fatalf("held=%d highwater=%d, want 4/4", st.Held, st.HeldHighWater)
	}
	if st.ShedHeldFull != 2 {
		t.Fatalf("shed_held_full=%d, want 2", st.ShedHeldFull)
	}
}

// deltaStack drives a broker checkpointing with CheckpointFullEvery=4
// up to killAt, kills it, and returns the stack for state comparison.
// Tasks arriving at or after killAt are not submitted.
func deltaStack(t testing.TB, path string, fullEvery, slots, killAt int, seed int64) *testStack {
	t.Helper()
	s := newStack(t, slots, 4, 6.0, seed)
	opts := s.brokerOptions()
	opts.CheckpointPath = path
	opts.CheckpointFullEvery = fullEvery
	b := startBroker(t, opts)
	var early []task.Task
	for _, tk := range s.tasks {
		if int(tk.Arrival) < killAt {
			early = append(early, tk)
		}
	}
	verdicts := make([]error, len(early))
	if _, err := b.SubmitBatchAck(context.Background(), early, verdicts); err != nil {
		t.Fatalf("SubmitBatchAck: %v", err)
	}
	for i, v := range verdicts {
		if v != nil {
			t.Fatalf("bid %d: %v", early[i].ID, v)
		}
	}
	if _, err := b.Step(killAt); err != nil {
		t.Fatalf("Step: %v", err)
	}
	b.Kill()
	return s
}

// TestLoadCheckpointDeltaEquivalence runs the same workload through a
// per-slot-full broker and a binary-delta broker (full snapshot every 4
// slots) and asserts LoadCheckpoint reconstructs, from full + deltas,
// the exact state the full-snapshot twin persisted — and that the old
// full-snapshot reader still reads the delta run's base snapshot.
func TestLoadCheckpointDeltaEquivalence(t *testing.T) {
	const slots, killAt = 24, 11 // 11 is mid-interval: full at 9, deltas at 10..11
	dir := t.TempDir()
	fullPath := filepath.Join(dir, "full.ckpt")
	deltaPath := filepath.Join(dir, "delta.ckpt")
	deltaStack(t, fullPath, 1, slots, killAt, 23)
	s := deltaStack(t, deltaPath, 4, slots, killAt, 23)

	if _, err := os.Stat(DeltaPath(deltaPath)); err != nil {
		t.Fatalf("no delta sidecar written: %v", err)
	}
	want, _, err := readCheckpoint(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Slot != killAt || want.Slot != killAt {
		t.Fatalf("checkpoint slots %d/%d, want %d", got.Slot, want.Slot, killAt)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delta-reconstructed checkpoint diverges from the full snapshot\ngot  %+v\nwant %+v", got, want)
	}

	// The base snapshot alone (what a pre-delta reader sees) must still
	// parse and restore: readCheckpoint ignores the sidecar by design.
	base, _, err := readCheckpoint(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	if base.Slot != 9 {
		t.Fatalf("base snapshot at slot %d, want 9 (last full boundary)", base.Slot)
	}
	restored := newStack(t, slots, 4, 6.0, 23)
	nb, err := New(restored.brokerOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := nb.Restore(got); err != nil {
		t.Fatalf("Restore of delta-reconstructed checkpoint: %v", err)
	}
	if !reflect.DeepEqual(restored.sched.SnapshotDuals(), s.sched.SnapshotDuals()) {
		t.Fatal("restored duals differ from the killed delta broker's")
	}
	if !reflect.DeepEqual(restored.cl.Snapshot(), s.cl.Snapshot()) {
		t.Fatal("restored ledger differs from the killed delta broker's")
	}
}

// TestLoadCheckpointCorruptTail corrupts and truncates the delta
// sidecar and asserts LoadCheckpoint falls back to the longest valid
// prefix — never an error, never a torn state.
func TestLoadCheckpointCorruptTail(t *testing.T) {
	const slots, killAt = 24, 11
	dir := t.TempDir()
	path := filepath.Join(dir, "broker.ckpt")
	deltaStack(t, path, 4, slots, killAt, 23)

	side := DeltaPath(path)
	pristine, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	reset := func(b []byte) {
		if err := os.WriteFile(side, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	load := func(label string) *Checkpoint {
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("%s: LoadCheckpoint: %v", label, err)
		}
		return ck
	}

	if ck := load("pristine"); ck.Slot != killAt {
		t.Fatalf("pristine: slot %d, want %d", ck.Slot, killAt)
	}

	// Flip a byte in the last record's payload: its CRC fails, the
	// prefix before it survives.
	flipped := append([]byte(nil), pristine...)
	flipped[len(flipped)-1] ^= 0xff
	reset(flipped)
	if ck := load("flipped tail"); ck.Slot != killAt-1 {
		t.Fatalf("flipped tail: slot %d, want %d", ck.Slot, killAt-1)
	}

	// Tear the last record in half (a crash mid-append).
	reset(pristine[:len(pristine)-20])
	if ck := load("torn tail"); ck.Slot != killAt-1 {
		t.Fatalf("torn tail: slot %d, want %d", ck.Slot, killAt-1)
	}

	// Destroy the sidecar header: the full snapshot stands alone.
	garbage := append([]byte(nil), pristine...)
	garbage[0] ^= 0xff
	reset(garbage)
	if ck := load("bad magic"); ck.Slot != 9 {
		t.Fatalf("bad magic: slot %d, want 9 (full snapshot alone)", ck.Slot)
	}

	// No sidecar at all: LoadCheckpoint degenerates to readCheckpoint.
	if err := os.Remove(side); err != nil {
		t.Fatal(err)
	}
	ck := load("no sidecar")
	want, _, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, want) {
		t.Fatal("sidecar-less LoadCheckpoint differs from readCheckpoint")
	}
}

// TestLoadCheckpointStaleSidecar keys a sidecar to a different snapshot
// and asserts it is ignored rather than misapplied.
func TestLoadCheckpointStaleSidecar(t *testing.T) {
	const slots = 24
	dir := t.TempDir()
	path := filepath.Join(dir, "broker.ckpt")
	deltaStack(t, path, 4, slots, 11, 23)
	side, err := os.ReadFile(DeltaPath(path))
	if err != nil {
		t.Fatal(err)
	}

	// Re-run two slots further: the full snapshot boundary re-keys the
	// chain, so the OLD sidecar must not apply to the NEW snapshot.
	deltaStack(t, path, 4, slots, 13, 23)
	if err := os.WriteFile(DeltaPath(path), side, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Slot != base.Slot {
		t.Fatalf("stale sidecar applied: slot %d, base %d", ck.Slot, base.Slot)
	}
}

// TestLoadCheckpointMisshapenPlane: the reader allocates every plane from
// the snapshot header's Nodes × Slots, so a plane of another shape cannot
// be built any more. What is left to refuse is a record that writes a
// cell outside that shape, the snapshot's own or a delta's, or a header
// that still names a lease plane, which snapshot v5 has no place for: the
// load fails with an error, restoring nothing. A JSON snapshot (v3 and before)
// is refused with ErrFormatVersion, and a snapshot without an intact
// header and record is an error, never an empty state.
func TestLoadCheckpointMisshapenPlane(t *testing.T) {
	const slots, killAt = 24, 12 // full snapshot at 9, deltas at 10..12
	path := filepath.Join(t.TempDir(), "shape.ckpt")
	s := newStack(t, slots, 3, 6, 37)
	opts := s.brokerOptions()
	opts.CheckpointPath, opts.CheckpointFullEvery = path, 4
	b := startBroker(t, opts)
	var early []task.Task
	for _, tk := range s.tasks {
		if int(tk.Arrival) < killAt {
			early = append(early, tk)
		}
	}
	if _, err := b.SubmitBatchAck(context.Background(), early, make([]error, len(early))); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Step(killAt); err != nil {
		t.Fatal(err)
	}
	b.Kill()
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Duals == nil {
		t.Fatal("the run leaves the dual planes out; their refusal goes untested")
	}

	// shorter drops the last node from every plane, header and all.
	shorter := func(ck Checkpoint) *Checkpoint {
		K := ck.Nodes - 1
		led := &ck.Ledger
		led.UsedWork, led.UsedMem, led.TasksOn = led.UsedWork[:K], led.UsedMem[:K], led.TasksOn[:K]
		if ck.Duals != nil {
			ck.Duals = &core.DualState{Lambda: ck.Duals.Lambda[:K], Phi: ck.Duals.Phi[:K]}
		}
		ck.Nodes = K
		return &ck
	}
	// frames splits a snapshot file into its magic and version, header
	// frame and record frame.
	frames := func(data []byte) (head, hdr, rec []byte) {
		r := &decision.Reader{B: data[len(snapshotMagic):]}
		r.U64()
		head = data[:len(data)-len(r.B)]
		at := len(r.B)
		decision.FrameNext(r)
		hdr = data[len(data)-at : len(data)-len(r.B)]
		return head, hdr, r.B
	}
	noDuals := *ck
	noDuals.Duals = nil
	// cutNode names one node fewer in the header than the planes hold.
	cutNode := func(ck Checkpoint) *Checkpoint {
		ck.Nodes--
		return &ck
	}
	snapshot := func(ck *Checkpoint) []byte { data, _ := encodeSnapshot(ck); return data }
	head, hdr, rec := frames(snapshot(ck))
	_, _, noDualsRec := frames(snapshot(&noDuals))
	// leasedHdr is the header as v4 wrote it for a run with a lease plane:
	// the duals flag, then no down plane and a lease plane.
	r := &decision.Reader{B: hdr}
	leasedHdr := decision.AppendFrame(nil, append(bytes.Clone(decision.FrameNext(r)), 0, 1))
	jsonSnapshot, err := os.ReadFile(filepath.Join(formatsDir, "ckpt-v3-delta-v5-wal-v3", "fleet.json.shard0"))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		snapshot []byte
		delta    *Checkpoint // a delta diffed against nothing, when non-nil
		want     string
	}{
		{"snapshot-dual-cell", snapshot(cutNode(*ck)), nil, "dual cell"},
		{"snapshot-ledger-cell", snapshot(cutNode(noDuals)), nil, "ledger cell"},
		{"leased", bytes.Join([][]byte{head, leasedHdr, rec}, nil), nil, "2 bytes left"},
		{"delta-dual-cell", snapshot(shorter(*ck)), ck, "dual cell"},
		{"delta-ledger-cell", snapshot(shorter(noDuals)), &noDuals, "ledger cell"},
		{"json", jsonSnapshot, nil, ErrFormatVersion.Error()},
		{"no-record", bytes.Join([][]byte{head, hdr}, nil), nil, "claims 3 nodes × 24 slots"},
		{"torn-record", bytes.Join([][]byte{head, hdr, noDualsRec[:len(noDualsRec)-1]}, nil), nil, "no intact"},
		{"torn-header", bytes.Join([][]byte{head, hdr[:len(hdr)-1]}, nil), nil, "no intact"},
		{"record-twice", bytes.Join([][]byte{head, hdr, rec, rec}, nil), nil, "2 records"},
		{"trailing-byte", bytes.Join([][]byte{head, hdr, rec, {0}}, nil), nil, "1 bytes after"},
		{"foreign", []byte("PDFTSPX\x01"), nil, "not a snapshot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cut := filepath.Join(t.TempDir(), "shape.ckpt")
			if err := os.WriteFile(cut, tc.snapshot, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.delta != nil {
				rec, _ := appendRecord(nil, tc.delta, &deltaShadows{}, 0)
				keyed := &Broker{slot: ck.Slot, opts: Options{RunLabel: ck.RunLabel}}
				side := decision.AppendFrame(sidecarHeader(keyed, crc32.ChecksumIEEE(tc.snapshot)), rec)
				if err := os.WriteFile(DeltaPath(cut), side, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, _, err := readCheckpoint(cut); err != nil {
					t.Fatalf("the snapshot the delta extends: %v", err)
				}
			}
			if got, err := LoadCheckpoint(cut); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("loaded %v (err %v), want an error saying %q", got != nil, err, tc.want)
			}
		})
	}
}

// TestOtherVersionRefused bumps the version byte of a run's snapshot, of
// its delta sidecar, then of its journal, and wants ErrFormatVersion from
// every reader that restores through them. Read as absent, the sidecar restored
// slot 9 with 71 decisions and no error where the intact chain holds slot
// 12 with 86, and the journal, rotated at each persist, could not give
// the 15 bids decided in between back; a journal read as absent loses
// every bid acked since the last persist.
func TestOtherVersionRefused(t *testing.T) {
	const slots, killAt = 24, 12 // full snapshot at 9, deltas at 10..12
	path := filepath.Join(t.TempDir(), "version.ckpt")
	options := func() Options {
		opts := newStack(t, slots, 3, 6, 37).brokerOptions()
		opts.CheckpointPath, opts.CheckpointFullEvery, opts.WALPath = path, 4, WALPath(path)
		opts.RunLabel = "version"
		return opts
	}
	opts := options()
	b := startBroker(t, opts)
	perSlot := bySlot(t, newStack(t, slots, 3, 6, 37).tasks, slots)
	for s := 0; s <= killAt; s++ {
		if _, err := b.SubmitBatchAck(context.Background(), perSlot[s], make([]error, len(perSlot[s]))); err != nil {
			t.Fatal(err)
		}
		if s < killAt {
			if _, err := b.Step(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	b.Kill()
	ck, err := LoadCheckpoint(path)
	if err != nil || ck.Slot != killAt || ck.Decisions.Len() != 86 {
		t.Fatalf("intact chain: %v", err)
	}
	if acked := len(ReadWAL(opts.WALPath, opts.RunLabel)); acked != len(perSlot[killAt]) || acked == 0 {
		t.Fatalf("journal holds %d bids, want slot %d's %d", acked, killAt, len(perSlot[killAt]))
	}

	for _, file := range []struct {
		name, path string
		version    int // offset of the version byte
	}{
		{"snapshot", path, len(snapshotMagic)},
		{"sidecar", DeltaPath(path), len(deltaMagic)},
		{"journal", opts.WALPath, len(walMagic)},
	} {
		t.Run(file.name, func(t *testing.T) {
			intact, err := os.ReadFile(file.path)
			if err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(file.path, intact, 0o644)
			bumped := bytes.Clone(intact)
			bumped[file.version]++
			if err := os.WriteFile(file.path, bumped, 0o644); err != nil {
				t.Fatal(err)
			}
			if file.name != "journal" {
				if ck, err := LoadCheckpoint(path); !errors.Is(err, ErrFormatVersion) {
					t.Errorf("LoadCheckpoint of a bumped %s: %v", file.name, err)
					if err == nil {
						t.Errorf("restored slot %d with %d decisions", ck.Slot, ck.Decisions.Len())
					}
				}
			}
			nb := newBroker(t, options())
			if rep, err := nb.Resume(); !errors.Is(err, ErrFormatVersion) {
				t.Fatalf("Resume over a bumped %s: %+v, %v", file.name, rep, err)
			}
		})
	}
}

// TestBatchHTTPUnknownFieldTolerated pins the documented strictness
// trade-off of the pooled batch decoder: the single-bid endpoint rejects
// unknown fields, the batch endpoint tolerates them.
func TestBatchHTTPUnknownFieldTolerated(t *testing.T) {
	var reqs []BidRequest
	payload := []byte(`[{"id":1,"arrival":0,"deadline":5,"work":3,"mem_gb":2,"bid":4,"bogus":true}]`)
	if err := DecodeBids(payload, &reqs); err != nil {
		t.Fatalf("batch decode rejected unknown field: %v", err)
	}
	if len(reqs) != 1 || reqs[0].Task().ID != 1 {
		t.Fatalf("batch decode mangled the request: %+v", reqs)
	}

	// Reuse must not leak fields between decodes: a second payload that
	// omits deadline/work must not inherit the first one's values.
	if err := DecodeBids([]byte(`[{"id":2,"arrival":0,"bid":1}]`), &reqs); err != nil {
		t.Fatal(err)
	}
	tk := reqs[0].Task()
	if tk.Deadline != 0 || tk.Work != 0 {
		t.Fatalf("stale fields leaked through the decode pool: %+v", tk)
	}
	if !bytes.Contains(payload, []byte("bogus")) {
		t.Fatal("test payload lost its unknown field")
	}
}
