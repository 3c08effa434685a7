package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
	"time"

	"github.com/pdftsp/pdftsp/internal/decision"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
)

// walOptions wires a journaled, checkpointed broker for these tests.
func walOptions(t testing.TB, s *testStack) Options {
	t.Helper()
	opts := s.brokerOptions()
	opts.CheckpointPath = filepath.Join(t.TempDir(), "wal-test.ckpt")
	opts.WALPath = WALPath(opts.CheckpointPath)
	opts.RunLabel = "wal-test" // New defaults it; pin so ReadWAL's label matches
	return opts
}

// ackBatch fire-and-forget submits the batch and fails the test on any
// refused verdict.
func ackBatch(t testing.TB, b *Broker, batch []task.Task) {
	t.Helper()
	verdicts := make([]error, len(batch))
	if _, err := b.SubmitBatchAck(context.Background(), batch, verdicts); err != nil {
		t.Fatalf("SubmitBatchAck: %v", err)
	}
	for i, v := range verdicts {
		if v != nil {
			t.Fatalf("task %d refused: %v", batch[i].ID, v)
		}
	}
}

// TestWALJournalsAckedBids: every acked, undecided bid is on disk before
// its ack releases, and a crash (Kill) leaves the journal readable.
func TestWALJournalsAckedBids(t *testing.T) {
	s := newStack(t, 8, 2, 3, 5)
	opts := walOptions(t, s)
	b := startBroker(t, opts)
	ackBatch(t, b, s.tasks)
	b.Kill()

	got := ReadWAL(opts.WALPath, opts.RunLabel)
	if len(got) != len(s.tasks) {
		t.Fatalf("journal holds %d bids, want %d", len(got), len(s.tasks))
	}
	for i, tk := range s.tasks {
		if got[i] != tk {
			t.Fatalf("journal record %d = %+v, want %+v", i, got[i], tk)
		}
	}
}

// TestWALValidPrefixProperty is the satellite property test: however the
// journal is truncated (at every byte boundary) or corrupted (every byte
// flipped, one at a time), replay yields a valid prefix of the original
// records and never panics or errors.
func TestWALValidPrefixProperty(t *testing.T) {
	s := newStack(t, 8, 2, 3, 5)
	opts := walOptions(t, s)
	b := startBroker(t, opts)
	ackBatch(t, b, s.tasks)
	b.Kill()

	data, err := os.ReadFile(opts.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	want := ReadWAL(opts.WALPath, opts.RunLabel)
	if len(want) != len(s.tasks) {
		t.Fatalf("intact journal holds %d bids, want %d", len(want), len(s.tasks))
	}
	isPrefix := func(got []task.Task) bool {
		if len(got) > len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	mut := filepath.Join(t.TempDir(), "mutated.wal")
	check := func(kind string, i int, data []byte) {
		t.Helper()
		if err := os.WriteFile(mut, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got := ReadWAL(mut, opts.RunLabel)
		if !isPrefix(got) {
			t.Fatalf("%s at byte %d: replay returned %d records that are not a prefix of the %d originals",
				kind, i, len(got), len(want))
		}
	}
	for i := 0; i <= len(data); i++ {
		check("truncation", i, data[:i])
	}
	for i := 0; i < len(data); i++ {
		flipped := append([]byte(nil), data...)
		flipped[i] ^= 0xFF
		check("corruption", i, flipped)
	}

	// A record whose frame and checksum are sound but whose deadline no
	// int32 holds — what a build with wider fields could have journaled —
	// ends the prefix where it stands: neither it (wrapped into some other
	// bid) nor anything behind it is replayed.
	frame := func(payload []byte) []byte {
		f := decision.AppendU64(nil, uint64(len(payload)))
		f = binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(payload))
		return append(f, payload...)
	}
	var frames [][]byte
	size := 0
	for i := range want {
		frames = append(frames, frame(appendWALTask(nil, &want[i])))
		size += len(frames[i])
	}
	hdr := len(data) - size
	if hdr <= 0 || !bytes.Equal(data[hdr:], bytes.Join(frames, nil)) {
		t.Fatalf("journal is not a header and %d re-encodable frames", len(want))
	}
	k := len(want) / 2
	wide := decision.AppendInt(nil, want[k].ID)
	wide = decision.AppendInt(wide, int(want[k].Arrival))
	wide = decision.AppendInt(wide, math.MaxInt32+1)             // the deadline
	wide = append(wide, appendWALTask(nil, &task.Task{})[3:]...) // the other fields, all zero
	mutated := append([]byte(nil), data[:hdr]...)
	mutated = append(mutated, bytes.Join(frames[:k], nil)...)
	mutated = append(mutated, frame(wide)...)
	mutated = append(mutated, bytes.Join(frames[k:], nil)...)
	if err := os.WriteFile(mut, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := ReadWAL(mut, opts.RunLabel); len(got) != k || !isPrefix(got) {
		t.Fatalf("overflowing record at position %d: replay returned %d records, want exactly the %d before it", k, len(got), k)
	}
}

// TestWALReplayIdempotent: replay skips bids the restored decision map
// already decided, duplicated journal records, and never double-offers —
// and the recovered run finishes bit-identical to a sequential sim.Run.
func TestWALReplayIdempotent(t *testing.T) {
	const slots, killAt = 8, 3
	s := newStack(t, slots, 2, 3, 9)
	opts := walOptions(t, s)
	b := startBroker(t, opts)

	perSlot := bySlot(t, s.tasks, slots)
	for slot := 0; slot < killAt; slot++ {
		ackBatch(t, b, perSlot[slot])
		if _, err := b.Step(1); err != nil {
			t.Fatalf("step %d: %v", slot, err)
		}
	}
	// The ack boundary: the killAt batch is acked, journaled, undecided.
	ackBatch(t, b, perSlot[killAt])
	b.Kill()

	// Sabotage the journal with duplicates: append a copy of every
	// record region after the header, plus a hand-framed record for a
	// bid the checkpoint already decided.
	data, err := os.ReadFile(opts.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	// The last rotation re-headed the journal at the kill slot.
	hdr := len(walHeader(opts.RunLabel, killAt))
	if hdr >= len(data) {
		t.Fatalf("journal shorter (%d) than its header (%d)", len(data), hdr)
	}
	var decided task.Task
	found := false
	for slot := 0; slot < killAt && !found; slot++ {
		if len(perSlot[slot]) > 0 {
			decided, found = perSlot[slot][0], true
		}
	}
	if !found {
		t.Fatalf("no decided bids before slot %d for this seed", killAt)
	}
	payload := appendWALTask(nil, &decided)
	frame := decision.AppendU64(nil, uint64(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	data = append(data, data[hdr:]...) // every live record twice
	data = append(data, frame...)      // plus an already-decided bid
	if err := os.WriteFile(opts.WALPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A twin stack restores the checkpoint and replays the journal.
	s2 := newStack(t, slots, 2, 3, 9)
	opts2 := walOptions(t, s2)
	opts2.CheckpointPath = opts.CheckpointPath
	opts2.WALPath = opts.WALPath
	ck, err := LoadCheckpoint(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Slot != killAt {
		t.Fatalf("checkpoint at slot %d, want %d", ck.Slot, killAt)
	}
	b2, err := New(opts2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Restore(ck); err != nil {
		t.Fatal(err)
	}
	replayed, err := b2.RecoverWAL()
	if err != nil {
		t.Fatalf("RecoverWAL: %v", err)
	}
	if replayed != len(perSlot[killAt]) {
		t.Fatalf("replayed %d bids, want %d (the acked, undecided batch)", replayed, len(perSlot[killAt]))
	}
	// Duplicates dedup by held ID; the hand-framed already-decided bid
	// has an arrival behind the restored clock, so the stale guard (which
	// runs first) drops it — either way it is never re-offered.
	if b2.walDeduped != len(perSlot[killAt]) {
		t.Fatalf("deduped %d records, want %d", b2.walDeduped, len(perSlot[killAt]))
	}
	if b2.walStale != 1 {
		t.Fatalf("dropped %d stale records, want 1 (the already-decided bid)", b2.walStale)
	}
	if err := b2.Start(); err != nil {
		t.Fatal(err)
	}
	for slot := killAt; slot < slots; slot++ {
		if slot > killAt {
			ackBatch(t, b2, perSlot[slot])
		}
		if _, err := b2.Step(1); err != nil {
			t.Fatalf("step %d after recovery: %v", slot, err)
		}
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b2.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}

	want := replay(t, newStack(t, slots, 2, 3, 9))
	res := b2.Result()
	if msg := sim.DiffResults(res, want); msg != "" {
		t.Fatalf("recovered run diverged from sim.Run: %s\nbroker %+v\nsim    %+v", msg, res, want)
	}
	tw := newStack(t, slots, 2, 3, 9)
	replay(t, tw)
	if !s2.sched.SnapshotDuals().Equal(tw.sched.SnapshotDuals()) {
		t.Fatal("recovered run's final duals diverge from sim.Run")
	}
}

// TestWALAppendFailureRefusesUnjournaled: when the journal cannot record
// a batch, every bid in it is un-held and refused with ErrWAL (never
// acked undurably), the broker degrades (WAL failure counters), and the
// next successful rotation heals it.
func TestWALAppendFailureRefusesUnjournaled(t *testing.T) {
	s := newStack(t, 8, 2, 3, 5)
	opts := walOptions(t, s)
	b := startBroker(t, opts)

	perSlot := bySlot(t, s.tasks, 8)
	ackBatch(t, b, perSlot[0])
	heldBefore := len(perSlot[0])

	// Yank the journal's file descriptor out from under the broker: the
	// next append fails, and so does the truncate-rollback (broken).
	if err := b.do(func() { b.wal.f.Close() }); err != nil {
		t.Fatal(err)
	}
	batch := append([]task.Task(nil), perSlot[1]...)
	for i := range batch {
		batch[i].Arrival = 0 // arrive now, on the wedged journal
	}
	verdicts := make([]error, len(batch))
	if _, err := b.SubmitBatchAck(context.Background(), batch, verdicts); err != nil {
		t.Fatalf("SubmitBatchAck: %v", err)
	}
	for i, v := range verdicts {
		if !errors.Is(v, ErrWAL) {
			t.Fatalf("verdict %d = %v, want ErrWAL", i, v)
		}
	}
	st, err := b.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Held != heldBefore {
		t.Fatalf("held %d bids after the failed append, want %d (refused bids must be un-held)", st.Held, heldBefore)
	}
	if st.WALFailures == 0 || st.WALError == "" {
		t.Fatalf("WAL failure not surfaced: %+v", st)
	}
	// Broken journal: intake refuses outright until rotation.
	one := perSlot[1][0]
	one.Arrival = 0
	one.ID = 90001
	if _, err := b.Submit(contextWithTimeout(t), one); !errors.Is(err, ErrWAL) {
		t.Fatalf("Submit on a broken journal = %v, want ErrWAL", err)
	}
	// Closing the slot persists a checkpoint; its rotation rewrites the
	// journal onto a fresh descriptor and clears the broken state.
	if _, err := b.Step(1); err != nil {
		t.Fatal(err)
	}
	healed := append([]task.Task(nil), perSlot[1]...)
	for i := range healed {
		healed[i].Arrival = 1
		healed[i].ID = 91000 + i
	}
	ackBatch(t, b, healed)
	st, err = b.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Held != len(healed) {
		t.Fatalf("held %d bids after rotation healed the journal, want %d", st.Held, len(healed))
	}
	b.Kill()
}

// TestWALBatchedFsyncFailureRewrites: with WALSyncEvery 4 the first three
// messages are acked on the OS's word, and the fourth's fsync is the one
// that would make them durable. When it fails, the kernel drops their
// dirty pages (powerFS models this), so the whole file is suspect and a
// retried fsync would succeed without them: the fourth
// message is refused with ErrWAL, the journal is rewritten at once from
// the committed chunks, so that the three acked messages are on disk as
// of an fsync, and the rewrite clears the broken mark, so the next bid is
// acked again. When the immediate rewrite fails as well, the journal
// stays broken: intake refuses every bid with ErrWAL until the next
// checkpoint's rotation rewrites the file, and only then acks again.
func TestWALBatchedFsyncFailureRewrites(t *testing.T) {
	s := newStack(t, 8, 2, 3, 5)
	if len(s.tasks) < 5 {
		t.Fatalf("workload has %d bids, want at least 5", len(s.tasks))
	}
	opts := walOptions(t, s)
	opts.WALSyncEvery = 4
	b, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	p := newPowerFS(-1, "")
	b.fsys = p
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Kill()
	for _, tk := range s.tasks[:3] {
		ackBatch(t, b, []task.Task{tk})
	}

	// The fourth message is a write, then the batch's fsync: fail the fsync.
	p.mu.Lock()
	at := len(p.ops)
	p.mu.Unlock()
	p.arm(1, "fail")
	verdicts := make([]error, 1)
	if _, err := b.SubmitBatchAck(context.Background(), s.tasks[3:4], verdicts); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	if ops := p.ops[at:]; len(ops) < 2 || ops[0] != "write" || ops[1] != "sync" || len(p.fired) != 1 {
		t.Fatalf("operations %v, faults fired %v: the fault missed the batch's fsync", ops, p.fired)
	}
	if !errors.Is(verdicts[0], ErrWAL) {
		t.Fatalf("verdict %v after the failed fsync, want ErrWAL", verdicts[0])
	}

	// What an fsync has made durable under the journal's synced name.
	ino := p.synced[filepath.Base(opts.WALPath)]
	var onDisk []byte
	if ino != nil {
		onDisk = bytes.Clone(ino.synced)
	}
	p.mu.Unlock()
	got, err := walRecords(onDisk, opts.RunLabel)
	if err != nil || len(got) != 3 {
		t.Fatalf("the journal on disk holds %d bids (err %v), want the 3 acked before the failed fsync", len(got), err)
	}
	for i := range got {
		if got[i] != s.tasks[i] {
			t.Fatalf("journal record %d is %+v, want %+v", i, got[i], s.tasks[i])
		}
	}

	// The rewrite cleared the broken mark: intake acks again.
	ackBatch(t, b, s.tasks[4:5])
	st, err := b.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Held != 4 || st.WALFailures != 1 {
		t.Fatalf("held %d, %d journal failures; want 4 held (the refused bid un-held) and 1 failure", st.Held, st.WALFailures)
	}

	// Three more messages reach the next batched fsync. Fail it, and two
	// operations later (past the rollback's truncate) the rewrite's create.
	late := func(id int) []task.Task {
		return []task.Task{{ID: id, Arrival: 7, Deadline: 7, Work: 5, MemGB: 2, Batch: 8, Bid: 5}}
	}
	ackBatch(t, b, late(100))
	ackBatch(t, b, late(101))
	p.mu.Lock()
	at = len(p.ops)
	p.mu.Unlock()
	p.armTwice(1, 2, "fail")
	for _, id := range []int{102, 103} {
		if _, err := b.SubmitBatchAck(context.Background(), late(id), verdicts); err != nil {
			t.Fatal(err)
		}
		if !errors.Is(verdicts[0], ErrWAL) {
			t.Fatalf("bid %d: verdict %v with the journal unhealed, want ErrWAL", id, verdicts[0])
		}
	}
	p.mu.Lock()
	ops, fired := slices.Clone(p.ops[at:]), len(p.fired)
	p.mu.Unlock()
	if len(ops) < 4 || !slices.Equal(ops[:4], []string{"write", "sync", "truncate", "create"}) || fired != 3 {
		t.Fatalf("operations %v, %d faults fired: the faults missed the fsync and the rewrite", ops, fired)
	}

	// The checkpoint at the next slot close rotates the journal, which
	// heals it: intake acks again, and the journal holds every acked bid
	// and neither refused one.
	if _, err := b.Step(1); err != nil {
		t.Fatal(err)
	}
	ackBatch(t, b, late(104))
	ids := map[int]bool{}
	for _, tk := range ReadWAL(opts.WALPath, opts.RunLabel) {
		ids[tk.ID] = true
	}
	if !ids[100] || !ids[101] || !ids[104] || ids[102] || ids[103] {
		t.Fatalf("the healed journal holds IDs %v, want 100, 101 and 104 but not 102 or 103", ids)
	}
	if st, err = b.Status(); err != nil || st.WALFailures != 2 {
		t.Fatalf("%d journal failures (err %v), want 2", st.WALFailures, err)
	}
}

// TestWALRecoverReseedFailureKeepsJournal: recovery stages its reseeded
// journal as a temp file and renames it into place only once the
// survivors are durable — so a recovery attempt whose reseed fails
// (here: the reseed's rename) leaves the old journal byte-identical on
// disk, and the next attempt still
// replays every acked bid. A truncate-in-place reseed would destroy
// them all at the first failed attempt.
func TestWALRecoverReseedFailureKeepsJournal(t *testing.T) {
	s := newStack(t, 8, 2, 3, 5)
	opts := walOptions(t, s)
	b := startBroker(t, opts)
	ackBatch(t, b, s.tasks)
	b.Kill()
	before, err := os.ReadFile(opts.WALPath)
	if err != nil {
		t.Fatal(err)
	}

	s2 := newStack(t, 8, 2, 3, 5)
	opts2 := walOptions(t, s2)
	opts2.CheckpointPath = opts.CheckpointPath
	opts2.WALPath = opts.WALPath
	b2, err := New(opts2)
	if err != nil {
		t.Fatal(err)
	}
	b2.fsys = failRenameFS{} // the reseed never lands, as if recovery died mid-way
	if _, err := b2.RecoverWAL(); err == nil {
		t.Fatal("RecoverWAL with a refused reseed returned nil error")
	}
	after, err := os.ReadFile(opts.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a failed recovery attempt mutated the on-disk journal")
	}

	s3 := newStack(t, 8, 2, 3, 5)
	opts3 := walOptions(t, s3)
	opts3.CheckpointPath = opts.CheckpointPath
	opts3.WALPath = opts.WALPath
	b3, err := New(opts3)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := b3.RecoverWAL()
	if err != nil {
		t.Fatalf("RecoverWAL after a failed attempt: %v", err)
	}
	if replayed != len(s.tasks) {
		t.Fatalf("replayed %d bids after a failed recovery attempt, want all %d", replayed, len(s.tasks))
	}
}

// failRenameFS is the os filesystem, except that every rename fails.
type failRenameFS struct{ osFS }

func (failRenameFS) Rename(string, string) error { return syscall.EIO }

// TestWALRecoverWithoutCheckpoint: a crash before the first checkpoint
// persist leaves only the journal on disk; recovery onto a fresh broker
// (slot 0, empty decision map) replays every acked bid and the resumed
// run decides them all, bit-identical to a sequential sim.Run — the
// contract `pdftspd -wal -restore`'s journal-only path relies on.
func TestWALRecoverWithoutCheckpoint(t *testing.T) {
	const slots = 8
	s := newStack(t, slots, 2, 3, 5)
	opts := walOptions(t, s)
	b := startBroker(t, opts)
	ackBatch(t, b, s.tasks)
	b.Kill() // no slot ever closed: journal on disk, checkpoint never written
	if _, err := os.Stat(opts.CheckpointPath); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("checkpoint unexpectedly on disk before the first persist: %v", err)
	}

	s2 := newStack(t, slots, 2, 3, 5)
	opts2 := walOptions(t, s2)
	opts2.CheckpointPath = opts.CheckpointPath
	opts2.WALPath = opts.WALPath
	b2, err := New(opts2)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := b2.RecoverWAL()
	if err != nil {
		t.Fatalf("RecoverWAL without a checkpoint: %v", err)
	}
	if replayed != len(s.tasks) {
		t.Fatalf("replayed %d bids from the journal alone, want all %d", replayed, len(s.tasks))
	}
	if err := b2.Start(); err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < slots; slot++ {
		if _, err := b2.Step(1); err != nil {
			t.Fatalf("step %d after journal-only recovery: %v", slot, err)
		}
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b2.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	for _, tk := range s.tasks {
		if _, ok, err := b2.DecisionFor(tk.ID); err != nil || !ok {
			t.Fatalf("acked bid %d lost across the journal-only recovery (ok=%v err=%v)", tk.ID, ok, err)
		}
	}
	want := replay(t, newStack(t, slots, 2, 3, 5))
	res := b2.Result()
	if msg := sim.DiffResults(res, want); msg != "" {
		t.Fatalf("journal-only recovery diverged from sim.Run: %s\nbroker %+v\nsim    %+v", msg, res, want)
	}
}

// httpGetCode GETs the URL and returns just the status code.
func httpGetCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// contextWithTimeout is a test-scoped context that cleans itself up.
func contextWithTimeout(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestWALDrainRetainsHeld: drain refuses held bids, but their journal
// records survive the final rotation — a restore re-offers them instead
// of losing fire-and-forget submitters' acks.
func TestWALDrainRetainsHeld(t *testing.T) {
	s := newStack(t, 8, 2, 3, 5)
	opts := walOptions(t, s)
	b := startBroker(t, opts)
	ackBatch(t, b, s.tasks)
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	left := ReadWAL(opts.WALPath, opts.RunLabel)
	if len(left) != len(s.tasks) {
		t.Fatalf("journal holds %d bids after drain, want all %d refused-held bids", len(left), len(s.tasks))
	}
}

// TestWALReplaysAssignedIDAboveBound: a submitter may choose an ID up to
// maxBidID, after which the broker assigns IDs above it. Those are as
// durable as any: replay re-holds them, and presenting one again (what a
// client re-sending its bid after a restart does) is a duplicate, not an oversized ID — while a
// chosen ID above the bound stays refused.
func TestWALReplaysAssignedIDAboveBound(t *testing.T) {
	s := newStack(t, 8, 2, 3, 5)
	opts := walOptions(t, s)
	b := startBroker(t, opts)
	batch := []task.Task{s.tasks[0], s.tasks[1]}
	batch[0].ID, batch[1].ID = maxBidID, -1
	ackBatch(t, b, batch)
	if batch[1].ID != maxBidID+1 {
		t.Fatalf("omitted ID assigned %d, want %d", batch[1].ID, maxBidID+1)
	}
	b.Kill()

	s2 := newStack(t, 8, 2, 3, 5)
	opts2 := walOptions(t, s2)
	opts2.CheckpointPath, opts2.WALPath = opts.CheckpointPath, opts.WALPath
	b2, err := New(opts2)
	if err != nil {
		t.Fatal(err)
	}
	if replayed, err := b2.RecoverWAL(); err != nil || replayed != 2 {
		t.Fatalf("RecoverWAL = %d, %v; want both bids re-held", replayed, err)
	}
	if err := b2.Start(); err != nil {
		t.Fatal(err)
	}
	defer b2.Kill()
	again := []task.Task{batch[1], batch[1]}
	again[1].ID = maxBidID + 7
	verdicts := make([]error, 2)
	if _, err := b2.SubmitBatchAck(context.Background(), again, verdicts); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(verdicts[0], ErrDuplicateID) {
		t.Fatalf("assigned ID presented again: %v, want ErrDuplicateID", verdicts[0])
	}
	if verdicts[1] == nil || errors.Is(verdicts[1], ErrDuplicateID) {
		t.Fatalf("chosen ID above the bound: %v, want it refused as too large", verdicts[1])
	}
}

// TestPendingFor: an acked, undecided bid answers pending (202 over
// HTTP), flips to decided once its slot closes, and an unknown ID stays
// a plain 404.
func TestPendingFor(t *testing.T) {
	s := newStack(t, 8, 2, 3, 5)
	b := startBroker(t, s.brokerOptions())
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()

	batch := s.tasks[:4]
	ackBatch(t, b, batch)
	id := batch[0].ID
	if ok, err := b.PendingFor(id); err != nil || !ok {
		t.Fatalf("PendingFor(%d) = %v, %v; want true", id, ok, err)
	}
	if ok, err := b.PendingFor(999999); err != nil || ok {
		t.Fatalf("PendingFor(unknown) = %v, %v; want false", ok, err)
	}
	if code := httpGetCode(t, fmt.Sprintf("%s/v1/decisions/%d", srv.URL, id)); code != 202 {
		t.Fatalf("GET held decision = %d, want 202", code)
	}
	if code := httpGetCode(t, srv.URL+"/v1/decisions/999999"); code != 404 {
		t.Fatalf("GET unknown decision = %d, want 404", code)
	}
	if _, err := b.Step(1); err != nil {
		t.Fatal(err)
	}
	if ok, err := b.PendingFor(id); err != nil || ok {
		t.Fatalf("PendingFor(%d) after its slot closed = %v, %v; want false", id, ok, err)
	}
	if _, ok, err := b.DecisionFor(id); err != nil || !ok {
		t.Fatalf("DecisionFor(%d) = %v, %v; want decided", id, ok, err)
	}
	if code := httpGetCode(t, fmt.Sprintf("%s/v1/decisions/%d", srv.URL, id)); code != 200 {
		t.Fatalf("GET decided bid = %d, want 200", code)
	}
	b.Kill()
}
