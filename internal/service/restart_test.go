package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
)

// Coming back from a crash is a process restart: fresh stacks, Open and
// Resume over the dead process's checkpoint chain and journal, as
// `pdftspd -checkpoint X -wal -restore` does under a process supervisor.
// The tests below keep the names they had when an in-process supervisor
// did this, and hold a restart to what it promised.

// restartBroker is one process's life over ckpt: a journaled,
// checkpointed broker on a fresh seed-deterministic stack, resumed from
// whatever the last one left there, and started.
func restartBroker(t *testing.T, ckpt string, slots int, seed int64) (*Broker, *testStack) {
	t.Helper()
	s := newStack(t, slots, 2, 3, seed)
	opts := s.brokerOptions()
	opts.CheckpointPath, opts.WALPath = ckpt, WALPath(ckpt)
	a, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	return a.(*Broker), s
}

// TestSupervisorAckBoundaryKill: a broker is crash-stopped after acking a
// batch but before its slot closes — twice at one slot, so the second
// restart re-replays an already-replayed journal — and each restart
// resumes at that slot. The run must finish with every acked bid decided,
// bit-identical to a sequential sim.Run.
func TestSupervisorAckBoundaryKill(t *testing.T) {
	const slots, killAt, seed = 8, 3, 9
	ckpt := filepath.Join(t.TempDir(), "restart.ckpt")
	b, s := restartBroker(t, ckpt, slots, seed)
	defer func() { b.Kill() }()

	perSlot := bySlot(t, newStack(t, slots, 2, 3, seed).tasks, slots)
	acked := map[int]bool{}
	for slot := 0; slot < slots; slot++ {
		ackBatch(t, b, perSlot[slot])
		for _, tk := range perSlot[slot] {
			acked[tk.ID] = true
		}
		if slot == killAt {
			for kill := 0; kill < 2; kill++ {
				b.Kill()
				b, s = restartBroker(t, ckpt, slots, seed)
				if got, err := b.Slot(); err != nil || got != slot {
					t.Fatalf("restarted at slot %d (err %v), want %d", got, err, slot)
				}
			}
		}
		if _, err := b.Step(1); err != nil {
			t.Fatalf("step at slot %d: %v", slot, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	for id := range acked {
		if _, ok, err := b.DecisionFor(id); err != nil || !ok {
			t.Fatalf("acked bid %d lost across restarts (ok=%v err=%v)", id, ok, err)
		}
	}
	tw := newStack(t, slots, 2, 3, seed)
	want := replay(t, tw)
	if msg := sim.DiffResults(b.Result(), want); msg != "" {
		t.Fatalf("restarted run diverged from sim.Run: %s\nbroker %+v\nsim    %+v", msg, b.Result(), want)
	}
	if !reflect.DeepEqual(s.sched.SnapshotDuals(), tw.sched.SnapshotDuals()) {
		t.Fatal("restarted run's final duals diverge from sim.Run")
	}
}

// TestSupervisorResolvesReplayedDuplicate: a bid journaled just before a
// crash is re-held by the restarted broker's replay. Its client, which saw
// only its connection drop, re-sends it and is refused as a duplicate (409
// — the first submission succeeded); GET /v1/decisions/{id} then answers
// 202 pending until the bid's slot closes and 200 after. An ID no process
// has seen answers 404.
func TestSupervisorResolvesReplayedDuplicate(t *testing.T) {
	const slots, seed = 8, 5
	ckpt := filepath.Join(t.TempDir(), "restart.ckpt")
	b, _ := restartBroker(t, ckpt, slots, seed)
	batch := bySlot(t, newStack(t, slots, 2, 3, seed).tasks, slots)[0]
	if len(batch) == 0 {
		t.Fatal("no slot-0 bids for this seed")
	}
	ackBatch(t, b, batch)
	b.Kill()

	b, _ = restartBroker(t, ckpt, slots, seed)
	defer b.Kill()
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	id := batch[0].ID
	if r := formNamed("POST /v1/bids").offer(b, srv, batch[0]); r.status != http.StatusConflict {
		t.Fatalf("re-sent journaled bid %d: HTTP %d %q, want 409", id, r.status, r.refusal)
	}
	probe := fmt.Sprintf("/v1/decisions/%d", id)
	var body struct{ Status string }
	if httpJSON(t, srv, "GET", probe, nil, http.StatusAccepted, &body); body.Status != "pending" {
		t.Fatalf("replayed bid %d: status %q, want pending", id, body.Status)
	}
	if _, err := b.Step(1); err != nil {
		t.Fatal(err)
	}
	var got struct {
		TaskID int `json:"task_id"`
	}
	if httpJSON(t, srv, "GET", probe, nil, http.StatusOK, &got); got.TaskID != id {
		t.Fatalf("GET %s answered task %d", probe, got.TaskID)
	}
	httpJSON(t, srv, "GET", "/v1/decisions/987654", nil, http.StatusNotFound, nil)
}

// TestSupervisorRetriesHeldBidAcrossKill: a broker crash-stopped while it
// holds a blocking submission's bid refuses that bid (a dead process's
// client sees its connection drop instead). The journal re-holds the bid
// in the restarted broker, so the client's re-send through the same form
// is a duplicate, and the slot's close decides the bid. The last form is a
// batch whose first bid is decided before the kill: that answer stands,
// and the restarted broker serves the same decision from its checkpoint.
func TestSupervisorRetriesHeldBidAcrossKill(t *testing.T) {
	const slots, seed = 8, 5
	bid0 := bySlot(t, newStack(t, slots, 2, 3, seed).tasks, slots)[0][0]
	later := bid0
	later.ID, later.Arrival = bid0.ID+1000, 2
	forms := intakeForms[:0:0]
	for _, f := range intakeForms {
		if !f.ackOnly {
			forms = append(forms, f)
		}
	}
	const twoBids = "SubmitBatch, one bid decided before the kill"
	forms = append(forms, intakeForm{name: twoBids})
	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "restart.ckpt")
			b, _ := restartBroker(t, ckpt, slots, seed)
			srv := httptest.NewServer(b.Handler())
			bids := []task.Task{bid0}
			replies := make(chan []formReply, 1)
			if f.name != twoBids {
				go func() { replies <- []formReply{f.offer(b, srv, bid0)} }()
			} else {
				bids = append(bids, later)
				go func() {
					outs, err := b.SubmitBatch(context.Background(), bids)
					if err != nil {
						outs = []Outcome{{Err: err}, {Err: err}}
					}
					replies <- []formReply{inProcessReply(bid0.ID, &outs[0]), inProcessReply(later.ID, &outs[1])}
				}()
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
				st, err := b.Status()
				if err != nil {
					t.Fatal(err)
				}
				if st.Held == len(bids) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the submission was never held")
				}
			}
			if len(bids) > 1 {
				if _, err := b.Step(1); err != nil {
					t.Fatal(err)
				}
			}
			b.Kill()
			var got []formReply
			select {
			case got = <-replies:
			case <-time.After(10 * time.Second):
				t.Fatal("the blocked submission never returned")
			}
			srv.Close()

			b, _ = restartBroker(t, ckpt, slots, seed)
			defer b.Kill()
			srv = httptest.NewServer(b.Handler())
			defer srv.Close()
			for i, r := range got {
				if len(bids) > 1 && i == 0 {
					d, ok, err := b.DecisionFor(bid0.ID)
					if want := string(AppendDecision(nil, bid0.ID, &d)); err != nil || !ok || r.decision != want {
						t.Fatalf("bid %d decided before the kill answered %q, restarted broker holds %s (ok=%v err=%v)", bid0.ID, r.decision, want, ok, err)
					}
					continue
				}
				if r.refusal == "" {
					t.Fatalf("bid %d held by a killed broker answered %s", bids[i].ID, r.decision)
				}
				resend := f
				if len(bids) > 1 {
					resend = formNamed("SubmitBatch")
				}
				again := resend.offer(b, srv, bids[i])
				if !strings.Contains(again.refusal, ErrDuplicateID.Error()) {
					t.Fatalf("re-sent bid %d answered %q, want a duplicate", bids[i].ID, again.refusal)
				}
			}
			if _, err := b.Step(3); err != nil {
				t.Fatal(err)
			}
			for _, tk := range bids {
				if _, ok, err := b.DecisionFor(tk.ID); err != nil || !ok {
					t.Fatalf("bid %d: no decision after the restart (ok=%v err=%v)", tk.ID, ok, err)
				}
			}
		})
	}
}

// hookFS is a filesystem whose CreateTemp of a file whose pattern starts
// with prefix first calls hook, and fails with hook's error. A checkpoint
// file's prefix is "." + its base name + "-" (replaceFile), which no other
// file's shares: a stall, or a full disk for that file alone.
type hookFS struct {
	fileSys
	prefix string
	hook   func(pattern string) error
}

func (h hookFS) CreateTemp(dir, pattern string) (durableFile, error) {
	if strings.HasPrefix(pattern, h.prefix) {
		if err := h.hook(pattern); err != nil {
			return nil, err
		}
	}
	return h.fileSys.CreateTemp(dir, pattern)
}

// ckptPrefix is the temp-file prefix of the checkpoint file at path.
func ckptPrefix(path string) string { return "." + filepath.Base(path) + "-" }

// TestSupervisorWedgeDetection holds the liveness contract a process
// supervisor's probe relies on to restart a wedged broker: while the core
// goroutine is stuck in a checkpoint write, GET /healthz gives no 200
// within 2 s — whether it hangs or answers 503 — and once the write
// completes it answers 200 ok again.
func TestSupervisorWedgeDetection(t *testing.T) {
	opts := newStack(t, 8, 2, 3, 5).brokerOptions()
	opts.CheckpointPath = filepath.Join(t.TempDir(), "wedge.ckpt")
	b, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	gate, stalled := make(chan struct{}), make(chan string, 1)
	b.fsys = hookFS{osFS{}, ckptPrefix(opts.CheckpointPath), func(pattern string) error { stalled <- pattern; <-gate; return nil }}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Kill()
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	release := sync.OnceFunc(func() { close(gate) })
	defer release()

	stepped := make(chan error, 1)
	go func() {
		_, err := b.Step(1)
		stepped <- err
	}()
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("the checkpoint write never started")
	}
	probe := &http.Client{Timeout: 2 * time.Second}
	if resp, err := probe.Get(srv.URL + "/healthz"); err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("GET /healthz answered 200 while the core goroutine was wedged")
		}
	}
	release()
	if err := <-stepped; err != nil {
		t.Fatal(err)
	}
	var h Health
	if httpJSON(t, srv, "GET", "/healthz", nil, http.StatusOK, &h); h.Status != "ok" {
		t.Fatalf("GET /healthz after the stall cleared: %+v, want ok", h)
	}
}
