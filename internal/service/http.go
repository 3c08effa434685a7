package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
)

// BidRequest is the JSON body of POST /v1/bids — the wire form of one
// fine-tuning bid. Omitted id/arrival default to "assign the next ID" /
// "the current slot". The numeric fields have task.Task's widths, so
// encoding/json itself refuses a number the task could not hold (a 400)
// and the conversion below never narrows; model is a lora.Model, so a
// name outside the catalog is refused the same way. The field order is
// the wire's key order and stays as it is.
type BidRequest struct {
	ID        *int       `json:"id,omitempty"`
	Arrival   *int32     `json:"arrival,omitempty"`
	Deadline  int32      `json:"deadline"`
	Work      int32      `json:"work"`
	MemGB     float64    `json:"mem_gb"`
	Bid       float64    `json:"bid"`
	NeedsPrep bool       `json:"needs_prep,omitempty"`
	Batch     int16      `json:"batch,omitempty"`
	ModelName lora.Model `json:"model,omitempty"`
}

// task converts the wire form; unset id/arrival become the broker's
// "assign for me" sentinels, and an unset batch defaults to 8 (a zero
// batch size would yield zero throughput on every node, silently making
// the bid unschedulable).
func (r *BidRequest) task() task.Task {
	t := task.Task{
		ID:        -1,
		Arrival:   -1,
		Deadline:  r.Deadline,
		Work:      r.Work,
		MemGB:     r.MemGB,
		Bid:       r.Bid,
		NeedsPrep: r.NeedsPrep,
		Batch:     r.Batch,
		ModelName: r.ModelName,
	}
	if r.ID != nil {
		t.ID = *r.ID
	}
	if r.Arrival != nil {
		t.Arrival = *r.Arrival
	}
	if t.Batch == 0 {
		t.Batch = 8
	}
	return t
}

// Task is the exported wire→internal conversion, for replay tooling
// (tracegen -bids, pdftspd-load) that round-trips workloads through the
// broker's request shape.
func (r *BidRequest) Task() task.Task { return r.task() }

// BidRequestFor converts a generated task to its wire form with
// explicit id and arrival, so a dumped workload replays with the same
// identities and slots it was generated with (tracegen -bids emits
// these; pdftspd-load -bids requires them).
func BidRequestFor(t task.Task) BidRequest {
	r := BidRequest{
		Deadline:  t.Deadline,
		Work:      t.Work,
		MemGB:     t.MemGB,
		Bid:       t.Bid,
		NeedsPrep: t.NeedsPrep,
		Batch:     t.Batch,
		ModelName: t.ModelName,
	}
	id, arrival := t.ID, t.Arrival
	r.ID = &id
	r.Arrival = &arrival
	return r
}

// DecisionResponse is the JSON form of an auction outcome.
type DecisionResponse struct {
	TaskID   int     `json:"task_id"`
	Admitted bool    `json:"admitted"`
	Payment  float64 `json:"payment,omitempty"`
	Vendor   int     `json:"vendor,omitempty"`
	// Reason explains a rejection (empty for admissions).
	Reason schedule.RejectReason `json:"reason,omitempty"`
	// Placements lists the admitted plan as (node, slot, work) triples.
	Placements []PlacementJSON `json:"placements,omitempty"`
}

// PlacementJSON is one (node, slot) cell of an admitted plan.
type PlacementJSON struct {
	Node int `json:"node"`
	Slot int `json:"slot"`
}

func decisionResponse(id int, d schedule.Decision) DecisionResponse {
	resp := DecisionResponse{
		TaskID:   id,
		Admitted: d.Admitted,
		Payment:  d.Payment,
		Reason:   d.Reason,
	}
	if d.Schedule != nil {
		resp.Vendor = d.Schedule.Vendor
		for _, p := range d.Schedule.Placements {
			resp.Placements = append(resp.Placements, PlacementJSON{Node: p.Node, Slot: p.Slot})
		}
	}
	return resp
}

// httpStatus maps service errors onto HTTP status codes.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrPastSlot), errors.Is(err, ErrDuplicateID), errors.Is(err, ErrRealClock):
		return http.StatusConflict
	case errors.Is(err, ErrHorizonOver):
		return http.StatusGone
	case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed), errors.Is(err, ErrWAL):
		return http.StatusServiceUnavailable
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	default:
		// Remaining intake verdicts are validation failures.
		return http.StatusBadRequest
	}
}

var errBadRequest = errors.New("service: bad request")

// httpScratch is the reusable per-request working set of the bid
// endpoints: the raw body, the decoded request(s), the task batch
// handed to the broker, and the response bytes. Pooling it makes the
// steady-state decode/encode path stop allocating per request.
type httpScratch struct {
	body     []byte
	reqs     []BidRequest
	tasks    []task.Task
	verdicts []error
	out      []byte
}

var scratchPool = sync.Pool{New: func() any { return &httpScratch{} }}

// readBody drains r into buf (reusing its capacity) — the pooled stand-
// in for the json.Decoder's internal buffer.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeBid strictly decodes one wire bid into req, overwriting it.
func decodeBid(data []byte, req *BidRequest) error {
	*req = BidRequest{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// decodeBids decodes a wire bid array, reusing reqs' capacity. The
// reused elements are zeroed first: Unmarshal merges into whatever an
// appended-over element already holds, so a field the new request omits
// (omitempty bools, pointers) would otherwise keep the previous
// request's value. Unlike the single-bid decoder this one is not
// strict about unknown fields — json.Decoder cannot reuse its internal
// buffer across requests, and on the batch fast path that buffer was
// the largest per-request allocation.
func decodeBids(data []byte, reqs *[]BidRequest) error {
	full := (*reqs)[:cap(*reqs)]
	for i := range full {
		full[i] = BidRequest{}
	}
	*reqs = (*reqs)[:0]
	return json.Unmarshal(data, reqs)
}

// DecodeBids exposes the pooled batch-bid decoder and AppendDecision
// the reflection-free decision encoder — the exact codecs the handlers
// run — so the serving benchmarks measure the real wire path.
func DecodeBids(data []byte, reqs *[]BidRequest) error { return decodeBids(data, reqs) }

// AppendDecision appends the DecisionResponse wire JSON for d.
func AppendDecision(out []byte, id int, d *schedule.Decision) []byte {
	return appendDecisionJSON(out, id, d)
}

// appendJSONFloat appends f the way encoding/json renders float64s:
// shortest 'f' form in the non-exponent range, 'e' outside it.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	return strconv.AppendFloat(b, f, format, -1, 64)
}

// appendDecisionJSON hand-encodes the DecisionResponse wire shape —
// field set and omitempty semantics identical to the struct above — so
// the hot path skips reflection and its per-response allocations.
func appendDecisionJSON(out []byte, id int, d *schedule.Decision) []byte {
	out = append(out, `{"task_id":`...)
	out = strconv.AppendInt(out, int64(id), 10)
	out = append(out, `,"admitted":`...)
	out = strconv.AppendBool(out, d.Admitted)
	if d.Payment != 0 {
		out = append(out, `,"payment":`...)
		out = appendJSONFloat(out, d.Payment)
	}
	if d.Schedule != nil && d.Schedule.Vendor != 0 {
		out = append(out, `,"vendor":`...)
		out = strconv.AppendInt(out, int64(d.Schedule.Vendor), 10)
	}
	if d.Reason != 0 {
		out = append(out, `,"reason":`...)
		out = strconv.AppendQuote(out, d.Reason.String())
	}
	if d.Schedule != nil && len(d.Schedule.Placements) > 0 {
		out = append(out, `,"placements":[`...)
		for i, p := range d.Schedule.Placements {
			if i > 0 {
				out = append(out, ',')
			}
			out = append(out, `{"node":`...)
			out = strconv.AppendInt(out, int64(p.Node), 10)
			out = append(out, `,"slot":`...)
			out = strconv.AppendInt(out, int64(p.Slot), 10)
			out = append(out, '}')
		}
		out = append(out, ']')
	}
	return append(out, '}')
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, httpStatus(err), map[string]string{"error": err.Error()})
}

// Handler exposes the broker over HTTP; see apiHandler for the surface.
func (b *Broker) Handler() http.Handler { return apiHandler(b) }

// Handler exposes the sharded fleet over the identical HTTP surface —
// clients cannot tell how many shards sit behind it, except that
// /v1/status returns the aggregated ShardsStatus (per-shard detail under
// "per_shard") and sharded intake requires explicit non-negative bid IDs
// (400 otherwise: each shard assigns its own IDs, so auto-assignment
// would mint duplicates across the fleet).
func (s *Shards) Handler() http.Handler { return apiHandler(s) }

// apiHandler is the one HTTP facade, generic over the Auctioneer:
//
//	POST /v1/bids            submit a bid (a batch of one); blocks until its
//	                         slot closes, responds with the irrevocable decision
//	POST /v1/bids/batch      submit a JSON array of bids as one intake
//	                         message; ?ack=1 returns after intake instead
//	                         of waiting for the decisions
//	GET  /v1/status          operational summary (slot, queue, welfare, duals)
//	GET  /v1/decisions/{id}  a decided bid's outcome
//	POST /v1/clock/step      advance a virtual-clock fleet {"slots": n}
//	GET  /healthz            liveness; 503 + reason while degraded
//	GET  /v1/healthz         alias, for probes confined to the /v1 prefix
//
// A bid's request context is its cancellation: a client that disconnects
// before its slot closes is skipped at round time.
//
// Degradation is partial by design: a broker whose checkpoint writes keep
// failing answers /healthz with 503 (so orchestrators can alert or
// reschedule it) while /v1/bids keeps accepting bids — the auction state
// is still sound, only its durability is at risk.
//
// Every response on this surface is JSON, errors included: the mux's
// built-in plain-text 404/405 refusals are rewritten into the API's
// {"error": ...} shape.
func apiHandler(a Auctioneer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/bids", func(w http.ResponseWriter, r *http.Request) { handleBids(a, w, r, true) })
	mux.HandleFunc("POST /v1/bids/batch", func(w http.ResponseWriter, r *http.Request) { handleBids(a, w, r, false) })
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) { handleStatus(a, w, r) })
	mux.HandleFunc("GET /v1/decisions/{id}", func(w http.ResponseWriter, r *http.Request) { handleDecision(a, w, r) })
	mux.HandleFunc("POST /v1/clock/step", func(w http.ResponseWriter, r *http.Request) { handleStep(a, w, r) })
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { handleHealthz(a, w, r) })
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) { handleHealthz(a, w, r) })
	return jsonErrors(mux)
}

// jsonErrors wraps the mux so its built-in refusals (404 for unknown
// paths, 405 for wrong methods) come back as JSON error bodies like
// every other response on the API; handler-written JSON errors pass
// through untouched.
func jsonErrors(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(&jsonErrorWriter{ResponseWriter: w}, r)
	})
}

// jsonErrorWriter rewrites non-JSON error responses at WriteHeader time:
// an error status whose Content-Type is not already application/json is
// the mux (or http.Error) speaking plain text — substitute the JSON
// shape and swallow the text body.
type jsonErrorWriter struct {
	http.ResponseWriter
	wroteHeader bool
	rewrote     bool
}

func (w *jsonErrorWriter) WriteHeader(status int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	if status >= 400 && w.Header().Get("Content-Type") != "application/json" {
		w.rewrote = true
		w.Header().Set("Content-Type", "application/json")
		w.Header().Del("Content-Length")
		w.ResponseWriter.WriteHeader(status)
		body := append([]byte(`{"error":`), strconv.AppendQuote(nil, http.StatusText(status))...)
		w.ResponseWriter.Write(append(body, '}'))
		return
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *jsonErrorWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.rewrote {
		// The plain-text body the JSON shape replaced; report it written.
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

func handleHealthz(a Auctioneer, w http.ResponseWriter, r *http.Request) {
	h := a.Health()
	status := http.StatusOK
	if h.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// retryAfter is the Retry-After hint attached to 429 responses: one slot.
// A virtual-clock broker advances in whole slots, so "1" (second) is the
// shortest standards-legal hint; a real-clock broker reports the slot
// duration rounded up to a whole second.
func (b *Broker) retryAfter() string {
	if b.opts.VirtualClock || b.opts.SlotDuration <= 0 {
		return "1"
	}
	secs := int(math.Ceil(b.opts.SlotDuration.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// handleBids serves both bid endpoints; the bids go to the fleet as one
// coalesced intake message (a sharded fleet partitions it by the
// dual-price placement rule and fans the slices out concurrently).
//
// POST /v1/bids/batch takes a JSON array of the /v1/bids wire shape. By
// default it blocks until every held bid's slot has closed and responds
// with one decision (or per-bid error) object per input, positionally.
// With ?ack=1 it returns as soon as the intake verdicts are known —
// {"task_id": n} per held bid (IDs the broker assigned included), plus an
// "error" field for refusals — and the decisions are later readable from
// /v1/decisions or an observer sink. Per-bid failures ride inside a 200;
// whole-batch failures (malformed JSON, a full intake channel, a stopping
// broker) use the same status codes as /v1/bids.
//
// POST /v1/bids (single) is the batch of one: its object is decoded
// strictly, and the answer is the decision object itself or the bid's
// refusal as the response status.
func handleBids(a Auctioneer, w http.ResponseWriter, r *http.Request, single bool) {
	sc := scratchPool.Get().(*httpScratch)
	var err error
	if sc.body, err = readBody(r.Body, sc.body[:0]); err == nil {
		if single {
			sc.reqs = append(sc.reqs[:0], BidRequest{})
			err = decodeBid(sc.body, &sc.reqs[0])
		} else {
			err = decodeBids(sc.body, &sc.reqs)
		}
	}
	if err != nil {
		scratchPool.Put(sc)
		writeErr(w, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	sc.tasks = sc.tasks[:0]
	for i := range sc.reqs {
		sc.tasks = append(sc.tasks, sc.reqs[i].task())
	}
	var outs []Outcome
	ack := !single && r.URL.Query().Get("ack") != ""
	if ack {
		sc.verdicts = sc.verdicts[:0]
		for range sc.tasks {
			sc.verdicts = append(sc.verdicts, nil)
		}
		_, err = a.SubmitBatchAck(r.Context(), sc.tasks, sc.verdicts)
	} else {
		outs, err = a.SubmitBatch(r.Context(), sc.tasks)
		if err == nil && single {
			err = outs[0].Err
		}
	}
	if err != nil {
		// On a context error the core goroutine may still own the
		// task/verdict slices; retire this scratch instead of pooling.
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			scratchPool.Put(sc)
		}
		if errors.Is(err, ErrQueueFull) {
			// Overload sheds rather than queues unboundedly; tell the
			// client when capacity plausibly returns (next slot close).
			w.Header().Set("Retry-After", a.retryAfter())
		}
		writeErr(w, err)
		return
	}
	out := sc.out[:0]
	if single {
		out = appendDecisionJSON(out, outs[0].Decision.TaskID, &outs[0].Decision)
	} else {
		out = append(out, '[')
		for i := range sc.tasks {
			if i > 0 {
				out = append(out, ',')
			}
			var refusal error
			if ack {
				refusal = sc.verdicts[i]
			} else if refusal = outs[i].Err; refusal == nil {
				out = appendDecisionJSON(out, outs[i].Decision.TaskID, &outs[i].Decision)
				continue
			}
			// A held ack-only bid or a refusal: the (possibly assigned) ID,
			// plus the reason when there is one.
			out = append(out, `{"task_id":`...)
			out = strconv.AppendInt(out, int64(sc.tasks[i].ID), 10)
			if refusal != nil {
				out = append(out, `,"error":`...)
				out = strconv.AppendQuote(out, refusal.Error())
			}
			out = append(out, '}')
		}
		out = append(out, ']')
	}
	sc.out = out
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(out)
	scratchPool.Put(sc)
}

func handleStatus(a Auctioneer, w http.ResponseWriter, r *http.Request) {
	st, err := a.statusPayload()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func handleDecision(a Auctioneer, w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, fmt.Errorf("%w: bad task id %q", errBadRequest, r.PathValue("id")))
		return
	}
	d, ok, err := a.DecisionFor(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	if !ok {
		// "Acked, awaiting its slot's round" and "never seen" are
		// different answers: a 202 tells the client its bid is safe and
		// undecided, a 404 that the fleet has no record of it.
		if pending, perr := a.PendingFor(id); perr == nil && pending {
			writeJSON(w, http.StatusAccepted, map[string]any{"task_id": id, "status": "pending"})
			return
		}
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("task %d not decided", id)})
		return
	}
	writeJSON(w, http.StatusOK, decisionResponse(id, d))
}

func handleStep(a Auctioneer, w http.ResponseWriter, r *http.Request) {
	var req struct {
		Slots int `json:"slots"`
	}
	// An empty body is {}: omitted slots means one.
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeErr(w, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	if req.Slots <= 0 {
		req.Slots = 1
	}
	slot, err := a.Step(req.Slots)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"slot": slot})
}
