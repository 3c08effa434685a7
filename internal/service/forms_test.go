package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"github.com/pdftsp/pdftsp/internal/task"
)

// formReply is what one bid got back through one submission form.
type formReply struct {
	err      error  // in-process forms: the verdict (or whole-call error)
	refusal  string // its message, from the error or the wire
	status   int    // HTTP forms: the response status
	id       int    // the bid's (possibly assigned) ID when it was held
	decision string // the decision's wire JSON; "" for a refusal or an ack
}

func inProcessReply(id int, d *Outcome) formReply {
	if d.Err != nil {
		return formReply{err: d.Err, refusal: d.Err.Error()}
	}
	return formReply{id: id, decision: string(AppendDecision(nil, d.Decision.TaskID, &d.Decision))}
}

// postBids sends body to path and splits the reply: the single-bid
// endpoint answers with the object itself, the batch endpoints with a
// one-element array.
func postBids(srv *httptest.Server, path string, body any, array bool) formReply {
	data, err := json.Marshal(body)
	if err != nil {
		return formReply{err: err, refusal: err.Error()}
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return formReply{err: err, refusal: err.Error()}
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	r := formReply{status: resp.StatusCode}
	if array && resp.StatusCode == http.StatusOK {
		var elems []json.RawMessage
		if err := json.Unmarshal(raw, &elems); err != nil || len(elems) != 1 {
			return formReply{err: errors.New("bad batch reply"), refusal: string(raw)}
		}
		raw = elems[0]
	}
	var obj struct {
		TaskID   int    `json:"task_id"`
		Error    string `json:"error"`
		Admitted *bool  `json:"admitted"`
	}
	if err := json.Unmarshal(raw, &obj); err != nil {
		return formReply{err: err, refusal: string(raw)}
	}
	r.id, r.refusal = obj.TaskID, obj.Error
	if obj.Error == "" && obj.Admitted != nil {
		r.decision = string(bytes.TrimSpace(raw))
	}
	return r
}

// intakeForm is one way a bid reaches hold: an in-process call (send) or
// an HTTP endpoint (path).
type intakeForm struct {
	name    string
	path    string // HTTP forms: the endpoint
	array   bool   // HTTP forms: body and reply are one-element arrays
	ackOnly bool   // returns at the ack; the decision is looked up later
	send    func(a Auctioneer, t task.Task) formReply
}

var intakeForms = []intakeForm{
	{name: "SubmitBatch", send: func(a Auctioneer, t task.Task) formReply {
		outs, err := a.SubmitBatch(context.Background(), []task.Task{t})
		if err != nil {
			return formReply{err: err, refusal: err.Error()}
		}
		return inProcessReply(outs[0].Decision.TaskID, &outs[0])
	}},
	{name: "SubmitBatchAck", ackOnly: true, send: func(a Auctioneer, t task.Task) formReply {
		tasks, verdicts := []task.Task{t}, make([]error, 1)
		if _, err := a.SubmitBatchAck(context.Background(), tasks, verdicts); err != nil {
			return formReply{err: err, refusal: err.Error()}
		}
		if verdicts[0] != nil {
			return formReply{err: verdicts[0], refusal: verdicts[0].Error()}
		}
		return formReply{id: tasks[0].ID}
	}},
	{name: "POST /v1/bids", path: "/v1/bids"},
	{name: "POST /v1/bids/batch", path: "/v1/bids/batch", array: true},
	{name: "POST /v1/bids/batch?ack=1", path: "/v1/bids/batch?ack=1", array: true, ackOnly: true},
}

// formNamed is the intake form called name.
func formNamed(name string) intakeForm {
	for _, f := range intakeForms {
		if f.name == name {
			return f
		}
	}
	panic("no intake form " + name)
}

// post sends one wire bid — anything that marshals to one — to an HTTP form.
func (f intakeForm) post(srv *httptest.Server, bid any) formReply {
	if f.array {
		bid = []any{bid}
	}
	return postBids(srv, f.path, bid, f.array)
}

func (f intakeForm) offer(a Auctioneer, srv *httptest.Server, t task.Task) formReply {
	if f.path == "" {
		return f.send(a, t)
	}
	return f.post(srv, BidRequestFor(t))
}

// TestIntakeFormsAgree drives one script of bids — every intake refusal
// and five held bids — through each submission form on a fresh, identical
// Broker and 1-shard Shards, and requires the forms to agree
// to the byte: the same refusal message for the same reason, the same
// decision JSON for the same bid. The "id-*" steps are the regression for
// chosen IDs that wrap nextID or use up what is left above it (MaxInt was
// held at the parent, after which "auto-id" was stamped MinInt64 and
// refused for the rest of the horizon): none above maxBidID is held, and
// the largest allowed one leaves "auto-id" an ID to be assigned.
func TestIntakeFormsAgree(t *testing.T) {
	for _, kind := range []string{"broker", "shards-1"} {
		t.Run(kind, func(t *testing.T) {
			var first []string
			var firstName string
			for _, f := range intakeForms {
				got := runIntakeScript(t, kind, f)
				if first == nil {
					first, firstName = got, f.name
					continue
				}
				for i := range first {
					if got[i] != first[i] {
						t.Errorf("%s, step %d:\n  %s\nbut %s:\n  %s", f.name, i, got[i], firstName, first[i])
					}
				}
			}
		})
	}
}

// runIntakeScript runs the script through one form on a fresh auctioneer
// of the given kind and returns one line per step: the refusal message or
// the decision JSON.
func runIntakeScript(t *testing.T, kind string, f intakeForm) []string {
	t.Helper()
	const slots = 8
	opts := newStack(t, slots, 2, 2, 5).brokerOptions()
	opts.QueueSize = 3
	opts.CheckpointPath = filepath.Join(t.TempDir(), "forms.ckpt")
	opts.WALPath = WALPath(opts.CheckpointPath)
	var a Auctioneer
	var err error
	if kind == "shards-1" {
		a, err = newShards("", []Options{opts})
	} else {
		a, err = New(opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	// Kill runs before Close, so a failed step's parked handlers return.
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Kill()

	held := func() int {
		st, err := a.Status()
		if err != nil {
			t.Fatal(err)
		}
		return st.Held
	}
	// offer sends one bid through the form and waits for its intake
	// verdict: a reply, or the broker's held count moving. A held bid's
	// blocking form stays parked in its goroutine until the slot closes;
	// every reply is collected after the steps.
	var inflight []chan formReply
	offer := func(step string, bid task.Task, wantHeld bool, want error) {
		t.Helper()
		before := held()
		done := make(chan formReply, 1)
		inflight = append(inflight, done)
		go func() { done <- f.offer(a, srv, bid) }()
		for {
			select {
			case r := <-done:
				done <- r
				switch {
				case wantHeld != (r.refusal == ""):
					t.Fatalf("%s via %s: want held=%v, got %q", step, f.name, wantHeld, r.refusal)
				case wantHeld:
				case f.path == "" && want != nil && !errors.Is(r.err, want):
					t.Fatalf("%s via %s: got %v, want %v", step, f.name, r.err, want)
				case f.path != "" && r.status != http.StatusOK && r.status != httpStatus(want):
					t.Fatalf("%s via %s: HTTP %d, want %d", step, f.name, r.status, httpStatus(want))
				}
				return
			default:
			}
			if held() != before {
				if !wantHeld {
					t.Fatalf("%s via %s: want a refusal, bid was held", step, f.name)
				}
				if !f.ackOnly {
					return
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	bid := func(id, arrival int) task.Task {
		return task.Task{ID: id, Arrival: int32(arrival), Deadline: slots - 1, Work: 5, MemGB: 2, Batch: 8, Bid: 5}
	}
	breakJournal := func(broken bool) {
		for _, br := range a.Brokers() {
			if err := br.do(func() { br.wal.broken = broken }); err != nil {
				t.Fatal(err)
			}
		}
	}
	step := func(n int) {
		t.Helper()
		if _, err := a.Step(n); err != nil {
			t.Fatal(err)
		}
	}

	offer("held-1", bid(1, 2), true, nil)
	offer("held-3", bid(3, 2), true, nil)
	offer("held-4", bid(4, 2), true, nil)
	offer("held-full", bid(5, 2), false, ErrHeldFull)
	offer("duplicate-held", bid(1, 3), false, ErrDuplicateID)
	invalid := bid(2, 2)
	invalid.Work = -1
	offer("validation", invalid, false, nil)
	step(3)
	offer("id-overflow", bid(math.MaxInt, 4), false, nil)
	offer("id-overflow-1", bid(math.MaxInt-1, 4), false, nil)
	offer("id-above-bound", bid(maxBidID+1, 4), false, nil)
	offer("id-at-bound", bid(maxBidID, 4), true, nil)
	if f.path != "" {
		// A number task.Task cannot hold is refused by the decoder, before
		// anything reaches the broker; the auto-ID bid below is still held.
		for _, o := range []struct {
			field string
			value int64
		}{{"deadline", math.MaxInt32 + 1}, {"work", math.MaxInt32 + 1}, {"batch", math.MaxInt16 + 1}} {
			wire, _ := json.Marshal(BidRequestFor(bid(9, 4)))
			var fields map[string]any
			if err := json.Unmarshal(wire, &fields); err != nil {
				t.Fatal(err)
			}
			fields[o.field] = o.value
			before, err := a.Status()
			if err != nil {
				t.Fatal(err)
			}
			r := f.post(srv, fields)
			after, err := a.Status()
			if err != nil {
				t.Fatal(err)
			}
			if r.status != http.StatusBadRequest || after.Held != before.Held || after.WALRecords != before.WALRecords {
				t.Fatalf("%s-overflow via %s: HTTP %d (%s), held %d → %d, journaled %d → %d; want 400 and nothing kept",
					o.field, f.name, r.status, r.refusal, before.Held, after.Held, before.WALRecords, after.WALRecords)
			}
		}
	}
	if kind == "shards-1" {
		offer("auto-id", bid(-1, 4), false, ErrShardNeedsID)
	} else {
		offer("auto-id", bid(-1, 4), true, nil) // assigned maxBidID+1
	}
	offer("duplicate-decided", bid(1, 5), false, ErrDuplicateID)
	offer("past-slot", bid(6, 1), false, ErrPastSlot)
	breakJournal(true)
	offer("journal-broken", bid(7, 5), false, ErrWAL)
	breakJournal(false)
	step(slots)
	offer("horizon-over", bid(8, slots-1), false, ErrHorizonOver)

	lines := make([]string, len(inflight))
	for i, done := range inflight {
		r := <-done
		lines[i] = r.refusal
		if r.refusal != "" {
			continue
		}
		lines[i] = r.decision
		if f.ackOnly {
			d, ok, err := a.DecisionFor(r.id)
			if err != nil || !ok {
				t.Fatalf("step %d via %s: acked bid %d has no decision (ok=%v err=%v)", i, f.name, r.id, ok, err)
			}
			lines[i] = string(AppendDecision(nil, r.id, &d))
		}
	}
	return lines
}
