package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
)

// walSupervisor wires a supervisor whose generations are journaled,
// checkpointed brokers rebuilt from seed-deterministic twin stacks. The
// returned channel signals each completed restart; lastStack tracks the
// serving generation's stack for final dual diffs.
func walSupervisor(t *testing.T, slots int, seed int64) (*Supervisor, chan int, *[]*testStack) {
	t.Helper()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sup.ckpt")
	stacks := &[]*testStack{}
	build := func() (Auctioneer, error) {
		s := newStack(t, slots, 2, 3, seed)
		opts := s.brokerOptions()
		opts.CheckpointPath, opts.WALPath = ckpt, WALPath(ckpt)
		b, err := New(opts)
		if err == nil {
			_, err = b.Resume()
		}
		if err == nil {
			err = b.Start()
		}
		if err != nil {
			return nil, err
		}
		*stacks = append(*stacks, s)
		return b, nil
	}
	restarted := make(chan int, 8)
	sup, err := NewSupervisor(SupervisorOptions{
		Build:         build,
		ProbeInterval: 5 * time.Millisecond,
		WedgeTimeout:  200 * time.Millisecond,
		RestartWait:   10 * time.Second,
		OnRestart:     func(gen int, reason string) { restarted <- gen },
	})
	if err != nil {
		t.Fatal(err)
	}
	return sup, restarted, stacks
}

func awaitRestart(t *testing.T, restarted chan int) {
	t.Helper()
	select {
	case <-restarted:
	case <-time.After(10 * time.Second):
		t.Fatal("no supervised restart within 10s")
	}
}

// TestSupervisorAckBoundaryKill is one fixed case of FuzzFleet's wal-chaos
// rows: a generation is crash-stopped after acking a batch but before
// its slot closes — twice at one slot, so the second recovery re-replays
// an already-replayed journal — and the supervised run must finish with
// every acked bid decided, bit-identical to a sequential sim.Run.
func TestSupervisorAckBoundaryKill(t *testing.T) {
	const slots, killAt = 8, 3
	const seed = 9
	sup, restarted, stacks := walSupervisor(t, slots, seed)
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Kill()

	ref := newStack(t, slots, 2, 3, seed)
	perSlot := bySlot(t, ref.tasks, slots)
	acked := map[int]bool{}
	for slot := 0; slot < slots; slot++ {
		batch := perSlot[slot]
		if len(batch) > 0 {
			verdicts := make([]error, len(batch))
			if _, err := sup.SubmitBatchAck(context.Background(), batch, verdicts); err != nil {
				t.Fatalf("submit at slot %d: %v", slot, err)
			}
			for i, v := range verdicts {
				if v != nil {
					t.Fatalf("task %d refused at slot %d: %v", batch[i].ID, slot, v)
				}
				acked[batch[i].ID] = true
			}
		}
		if slot == killAt {
			for kill := 0; kill < 2; kill++ {
				for _, b := range sup.Brokers() {
					b.Kill()
				}
				awaitRestart(t, restarted)
				if got, err := sup.Slot(); err != nil || got != slot {
					t.Fatalf("restored generation at slot %d (err %v), want %d", got, err, slot)
				}
			}
		}
		if _, err := sup.Step(1); err != nil {
			t.Fatalf("step at slot %d: %v", slot, err)
		}
	}
	if st, err := sup.Status(); err != nil || *st.Supervisor != (Supervision{Generation: 2, Restarts: 2}) {
		t.Fatalf("Status().Supervisor = %+v (err %v), want generation 2 after 2 restarts", st.Supervisor, err)
	}
	brokers := sup.Brokers()
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sup.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}

	for id := range acked {
		if _, ok, err := brokers[0].DecisionFor(id); err != nil || !ok {
			t.Fatalf("acked bid %d lost across supervised restarts (ok=%v err=%v)", id, ok, err)
		}
	}
	want := replay(t, newStack(t, slots, 2, 3, seed))
	res := brokers[0].Result()
	if msg := sim.DiffResults(res, want); msg != "" {
		t.Fatalf("supervised run diverged from sim.Run: %s\nbroker %+v\nsim    %+v", msg, res, want)
	}
	final := (*stacks)[len(*stacks)-1]
	tw := newStack(t, slots, 2, 3, seed)
	replay(t, tw)
	if !final.sched.SnapshotDuals().Equal(tw.sched.SnapshotDuals()) {
		t.Fatal("supervised run's final duals diverge from sim.Run")
	}
}

// TestSupersededBrokerRefusesPersist: once the supervisor marks a
// generation superseded, it neither acks new bids (they refuse with
// ErrClosed, un-held and never journaled — the supervised submitter
// retries against the successor) nor publishes any checkpoint or
// journal write: the successor's on-disk state stays byte-identical.
func TestSupersededBrokerRefusesPersist(t *testing.T) {
	s := newStack(t, 8, 2, 3, 5)
	opts := s.brokerOptions()
	opts.CheckpointPath = filepath.Join(t.TempDir(), "zombie.ckpt")
	opts.WALPath = WALPath(opts.CheckpointPath)
	opts.RunLabel = "zombie-test"
	b := startBroker(t, opts)

	perSlot := bySlot(t, s.tasks, 8)
	verdicts := make([]error, len(perSlot[0]))
	if _, err := b.SubmitBatchAck(context.Background(), perSlot[0], verdicts); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Step(1); err != nil { // persist a checkpoint, rotate the journal
		t.Fatal(err)
	}
	ckptBefore, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	walBefore, err := os.ReadFile(opts.WALPath)
	if err != nil {
		t.Fatal(err)
	}

	b.Supersede()
	batch := append([]task.Task(nil), perSlot[1]...)
	verdicts = make([]error, len(batch))
	if _, err := b.SubmitBatchAck(context.Background(), batch, verdicts); err != nil {
		t.Fatal(err)
	}
	for i, v := range verdicts {
		if !errors.Is(v, ErrClosed) {
			t.Fatalf("verdict %d on a superseded broker = %v, want ErrClosed", i, v)
		}
	}
	st, err := b.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Held != 0 {
		t.Fatalf("superseded broker holds %d bids, want 0 (refused bids must be un-held)", st.Held)
	}
	if _, err := b.Step(1); err != nil { // would persist slot 2's checkpoint
		t.Fatal(err)
	}
	b.Kill()
	ckptAfter, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	walAfter, err := os.ReadFile(opts.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckptBefore, ckptAfter) {
		t.Fatal("superseded broker rewrote the checkpoint")
	}
	if !bytes.Equal(walBefore, walAfter) {
		t.Fatal("superseded broker rewrote the journal")
	}
}

// stallFS is the os filesystem, except that creating a temp file whose
// pattern starts with prefix first calls stall.
type stallFS struct {
	osFS
	prefix string
	stall  func(pattern string)
}

func (s stallFS) CreateTemp(dir, pattern string) (durableFile, error) {
	if strings.HasPrefix(pattern, s.prefix) {
		s.stall(pattern)
	}
	return s.osFS.CreateTemp(dir, pattern)
}

// TestSupersededAsyncCheckpointDropped (the test floor pins the name; no
// writer is asynchronous): a checkpoint write that stalls across a
// supervisor swap (the wedge scenario) must not rename its stale snapshot
// over the successor's checkpoint once the stall clears — and without a
// persisted checkpoint, the journal keeps every acked bid for recovery.
func TestSupersededAsyncCheckpointDropped(t *testing.T) {
	s := newStack(t, 8, 2, 3, 5)
	opts := s.brokerOptions()
	opts.CheckpointPath = filepath.Join(t.TempDir(), "zombie.ckpt")
	opts.WALPath = WALPath(opts.CheckpointPath)
	opts.RunLabel = "zombie-test"
	b, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	stalled := make(chan string, 8)
	b.fsys = stallFS{osFS{}, "." + filepath.Base(opts.CheckpointPath) + "-", func(pattern string) { stalled <- pattern; <-gate }}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}

	perSlot := bySlot(t, s.tasks, 8)
	verdicts := make([]error, len(perSlot[0]))
	if _, err := b.SubmitBatchAck(context.Background(), perSlot[0], verdicts); err != nil {
		t.Fatal(err)
	}
	// The close writes the first checkpoint; the write stalls creating its
	// temp file, wedging the core goroutine with it.
	stepped := make(chan error, 1)
	go func() {
		_, err := b.Step(1)
		stepped <- err
	}()
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("checkpoint write never started")
	}
	b.Supersede() // the watchdog swapped in a successor while the write stalled
	close(gate)   // the stall clears: the zombie's write must be dropped
	if err := <-stepped; err != nil {
		t.Fatal(err)
	}
	st, err := b.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.CheckpointSlot != -1 || st.CheckpointFailures != 1 {
		t.Fatalf("dropped write recorded as slot %d, %d failures; want -1, 1", st.CheckpointSlot, st.CheckpointFailures)
	}
	b.Kill()

	if _, err := os.Stat(opts.CheckpointPath); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("superseded broker published its stalled checkpoint (stat: %v)", err)
	}
	if got := ReadWAL(opts.WALPath, opts.RunLabel); len(got) != len(perSlot[0]) {
		t.Fatalf("journal holds %d bids, want %d (no checkpoint covered them)", len(got), len(perSlot[0]))
	}
}

// TestSupervisorResolvesReplayedDuplicate: a bid journaled just before
// a crash is re-held by the next generation's replay; the supervisor
// maps its retried submission's duplicate-ID refusal onto the bid's
// real outcome (pending, then the decision) instead of surfacing a
// conflict for a submission that actually succeeded. A genuinely
// unknown duplicate keeps the original refusal.
func TestSupervisorResolvesReplayedDuplicate(t *testing.T) {
	sup, restarted, _ := walSupervisor(t, 8, 5)
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Kill()

	ref := newStack(t, 8, 2, 3, 5)
	var batch []task.Task
	for _, tk := range ref.tasks {
		if tk.Arrival == 0 {
			batch = append(batch, tk)
		}
	}
	if len(batch) == 0 {
		t.Fatal("no slot-0 bids for this seed")
	}
	verdicts := make([]error, len(batch))
	if _, err := sup.SubmitBatchAck(context.Background(), batch, verdicts); err != nil {
		t.Fatal(err)
	}
	for _, b := range sup.Brokers() {
		b.Kill()
	}
	awaitRestart(t, restarted)
	id := batch[0].ID
	if pending, err := sup.PendingFor(id); err != nil || !pending {
		t.Fatalf("PendingFor(%d) after replay = %v, %v; want pending", id, pending, err)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		sup.Step(1)
	}()
	out := sup.resolveReplayed(context.Background(), id, Outcome{Err: ErrDuplicateID})
	if out.Err != nil {
		t.Fatalf("replayed bid's retry resolved to %v, want its decision", out.Err)
	}
	d, ok, err := sup.DecisionFor(id)
	if err != nil || !ok {
		t.Fatalf("DecisionFor(%d) = %v, %v; want decided", id, ok, err)
	}
	if msg := sim.DiffDecisions(&out.Decision, &d, true); msg != "" {
		t.Fatalf("resolved decision differs from the recorded one: %s", msg)
	}
	unknown := sup.resolveReplayed(context.Background(), 987654, Outcome{Err: ErrDuplicateID})
	if !errors.Is(unknown.Err, ErrDuplicateID) {
		t.Fatalf("unknown duplicate resolved to %v, want the original ErrDuplicateID", unknown.Err)
	}
}

// TestSupervisorRetriesHeldBidAcrossKill: a generation crash-stopped while
// it holds a blocking submission's bid answers that bid ErrClosed — inside
// the outcome, not as the call's error. The supervisor re-submits to the
// successor, whose journal replay already holds the bid, and the caller
// gets the real decision (HTTP 200), never a 503 for a bid that was
// journaled and will be decided. The last form is a batch whose first bid
// is decided before the kill: it is behind the successor's clock on the
// retry and keeps its decision too.
func TestSupervisorRetriesHeldBidAcrossKill(t *testing.T) {
	ref := newStack(t, 8, 2, 3, 5)
	var bid0 task.Task
	for _, tk := range ref.tasks {
		if tk.Arrival == 0 {
			bid0 = tk
			break
		}
	}
	later := bid0
	later.ID, later.Arrival = bid0.ID+1000, 2
	forms := intakeForms[:0:0]
	for _, f := range intakeForms {
		if !f.brokerOnly && !f.ackOnly {
			forms = append(forms, f)
		}
	}
	const twoBids = "SubmitBatch, one bid decided before the kill"
	forms = append(forms, intakeForm{name: twoBids})
	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) {
			sup, restarted, _ := walSupervisor(t, 8, 5)
			srv := httptest.NewServer(sup.Handler())
			defer srv.Close()
			if err := sup.Start(); err != nil {
				t.Fatal(err)
			}
			defer sup.Kill()

			bids := []task.Task{bid0}
			replies := make(chan []formReply, 1)
			if f.name != twoBids {
				go func() { replies <- []formReply{f.offer(sup, srv, bid0)} }()
			} else {
				bids = append(bids, later)
				go func() {
					outs, err := sup.SubmitBatch(context.Background(), []task.Task{bid0, later})
					if err != nil {
						outs = []Outcome{{Err: err}, {Err: err}}
					}
					replies <- []formReply{inProcessReply(bid0.ID, &outs[0]), inProcessReply(later.ID, &outs[1])}
				}()
			}
			for {
				st, err := sup.Status()
				if err != nil {
					t.Fatal(err)
				}
				if st.Held == len(bids) {
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			if len(bids) > 1 {
				if _, err := sup.Step(1); err != nil {
					t.Fatal(err)
				}
			}
			for _, b := range sup.Brokers() {
				b.Kill()
			}
			awaitRestart(t, restarted)
			if _, err := sup.Step(3); err != nil {
				t.Fatal(err)
			}
			var got []formReply
			select {
			case got = <-replies:
			case <-time.After(10 * time.Second):
				t.Fatal("the blocked submission never returned")
			}
			for i, r := range got {
				d, ok, err := sup.DecisionFor(bids[i].ID)
				if err != nil || !ok {
					t.Fatalf("bid %d: no decision after the restart (ok=%v err=%v)", bids[i].ID, ok, err)
				}
				if want := string(AppendDecision(nil, bids[i].ID, &d)); r.decision != want {
					t.Errorf("bid %d answered %q (HTTP %d, err %v), want its decision %s", bids[i].ID, r.refusal, r.status, r.err, want)
				}
			}
		})
	}
}

// TestSupervisorWedgeDetection: a core goroutine stuck mid-slot (here,
// parked inside a control closure) stops answering the liveness probe;
// the watchdog declares the generation wedged and replaces it.
func TestSupervisorWedgeDetection(t *testing.T) {
	sup, restarted, _ := walSupervisor(t, 8, 5)
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Kill()

	gate := make(chan struct{})
	defer close(gate) // release the wedged goroutine at test end
	b0 := sup.Brokers()[0]
	go b0.do(func() { <-gate })

	awaitRestart(t, restarted)
	if st, err := sup.Status(); err != nil || st.Supervisor.Restarts != 1 {
		t.Fatalf("Status().Supervisor = %+v after a wedge (err %v), want 1 restart", st.Supervisor, err)
	}
	if _, err := sup.Slot(); err != nil {
		t.Fatalf("Slot after wedge recovery: %v", err)
	}
}

// TestSupervisedStatusReportsRestarts: an operator with curl reads the
// supervisor's generation and restart count on /v1/status — generation 0
// with no restart before a crash, generation 1 after one restart — next
// to the generation's own status.
func TestSupervisedStatusReportsRestarts(t *testing.T) {
	sup, restarted, _ := walSupervisor(t, 8, 5)
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Kill()
	srv := httptest.NewServer(sup.Handler())
	defer srv.Close()

	var status struct {
		Slot       int          `json:"slot"`
		Supervisor *Supervision `json:"supervisor"`
	}
	httpJSON(t, srv, "GET", "/v1/status", nil, http.StatusOK, &status)
	if status.Supervisor == nil || *status.Supervisor != (Supervision{}) {
		t.Fatalf("/v1/status before a crash: supervisor %+v, want generation 0, 0 restarts", status.Supervisor)
	}
	if _, err := sup.Step(2); err != nil {
		t.Fatal(err)
	}
	for _, b := range sup.Brokers() {
		b.Kill()
	}
	awaitRestart(t, restarted)
	status.Supervisor = nil
	httpJSON(t, srv, "GET", "/v1/status", nil, http.StatusOK, &status)
	if status.Supervisor == nil || *status.Supervisor != (Supervision{Generation: 1, Restarts: 1}) || status.Slot != 2 {
		t.Fatalf("/v1/status after one crash: slot %d, supervisor %+v; want slot 2, generation 1, 1 restart",
			status.Slot, status.Supervisor)
	}
}

// TestSupervisorBuildFailureSticky: when a rebuild fails, the supervisor
// stops for good — the sticky error surfaces on every call and Done
// closes — rather than crash-looping against broken on-disk state.
func TestSupervisorBuildFailureSticky(t *testing.T) {
	gen := 0
	errBroken := fmt.Errorf("state needs an operator")
	build := func() (Auctioneer, error) {
		gen++
		if gen > 1 {
			return nil, errBroken
		}
		s := newStack(t, 8, 2, 3, 5)
		b, err := New(s.brokerOptions())
		if err != nil {
			return nil, err
		}
		if err := b.Start(); err != nil {
			return nil, err
		}
		return b, nil
	}
	sup, err := NewSupervisor(SupervisorOptions{Build: build, RestartWait: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	sup.Brokers()[0].Kill()
	select {
	case <-sup.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("supervisor did not stop after the failed rebuild")
	}
	if _, err := sup.Slot(); !errors.Is(err, errBroken) {
		t.Fatalf("Slot after sticky failure = %v, want %v", err, errBroken)
	}
	h := sup.Health()
	if h.Status != "degraded" || h.Reason == "" {
		t.Fatalf("Health after sticky failure = %+v, want degraded with a reason", h)
	}
}
