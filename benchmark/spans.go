package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/schedule"
)

// Span kinds. The name is the layer (module) the time belongs to.
const (
	spanPost      uint8 = iota // client: one batch, first attempt → final ack
	spanAttempt                // client: one HTTP POST of a batch
	spanStep                   // client: POST /v1/clock/step
	spanHTTPBatch              // server: batch handler
	spanHTTPStep               // server: step handler (one slot-close round)
	spanOffer                  // core goroutine: OnBid → OnOutcome
	spanDP                     // core goroutine: one vendor quote's DP
	spanCommit                 // core goroutine: last DP → OnOutcome
	spanRestore                // harness: Kill → restored broker serving
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"harness.post", "harness.attempt", "harness.step",
	"service.http.batch", "service.http.step",
	"core.offer", "core.dp", "core.commit", "harness.restore",
}

// Offer outcome tags.
const (
	tagNone uint8 = iota
	tagAdmitted
	tagSurplus
	tagNoSchedule
	tagCapacity
	tagOtherReject
)

var tagNames = [...]string{"", "admitted", "surplus", "no-schedule", "capacity", "rejected"}

// span is one timed interval. parent is the index of the span that
// caused it (-1 at the root), id the batch, slot or task it belongs to,
// start and end nanoseconds since the recorder's epoch. For HTTP spans
// tag holds nothing and status the response code.
type span struct {
	kind   uint8
	tag    uint8
	status uint16
	parent int32
	id     int32
	start  int64
	end    int64
}

// recorder keeps spans in pre-sized memory. Slots are claimed with one
// atomic add, so the client goroutines, the HTTP handlers and the
// broker's core goroutine record without locking; each span is written
// only by the goroutine that opened it and read only after all of them
// have stopped.
type recorder struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newRecorder(epoch time.Time, capacity int) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// open claims a span starting now and returns its index, or -1 when the
// pre-sized memory is exhausted (the pass then fails). A nil recorder —
// an untraced pass — records nothing, so callers need not ask.
func (r *recorder) open(kind uint8, parent, id int32) int32 {
	if r == nil {
		return -1
	}
	return r.add(kind, parent, id, r.now(), 0)
}

func (r *recorder) add(kind uint8, parent, id int32, start, end int64) int32 {
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = span{kind: kind, parent: parent, id: id, start: start, end: end}
	return int32(i)
}

func (r *recorder) close(i int32) {
	if i >= 0 {
		r.spans[i].end = r.now()
	}
}

// recorded returns the spans written so far.
func (r *recorder) recorded() []span {
	n := r.n.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// writeJSONL writes one span per line: its index, layer name, parent
// index, id, start and end in ns since the pass's first POST epoch, and
// the outcome tag or HTTP status where one applies.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for i, s := range r.recorded() {
		line = append(line[:0], `{"span":`...)
		line = strconv.AppendInt(line, int64(i), 10)
		line = append(line, `,"name":"`...)
		line = append(line, spanNames[s.kind]...)
		line = append(line, `","parent":`...)
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, `,"id":`...)
		line = strconv.AppendInt(line, int64(s.id), 10)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		if s.tag != tagNone {
			line = append(line, `,"outcome":"`...)
			line = append(line, tagNames[s.tag]...)
			line = append(line, '"')
		}
		if s.status != 0 {
			line = append(line, `,"status":`...)
			line = strconv.AppendInt(line, int64(s.status), 10)
		}
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// latObserver stamps each decision on the broker's core goroutine, as
// cmd/pdftspd-load does: per-task cells are disjoint and the drain
// barrier publishes them. It is the only observer of an untraced pass.
type latObserver struct {
	obs.Base
	epoch time.Time
	dec   []int64 // decision time (ns since epoch) per task ID, 0 = undecided
}

func (l *latObserver) OnOutcome(e *obs.OutcomeEvent) {
	if e.TaskID >= 0 && e.TaskID < len(l.dec) {
		l.dec[e.TaskID] = int64(time.Since(l.epoch))
	}
}

// spanObserver is the traced pass's observer: on top of the latency
// stamp it turns the event stream of one Scheduler.Offer — OnBid, one
// OnVendor per quote's DP, OnDual per repriced cell, OnPayment,
// OnOutcome — into a core.offer span with core.dp and core.commit
// children. All events arrive on the core goroutine.
type spanObserver struct {
	latObserver
	rec *recorder
	// step is the open service.http.step span: the round that is
	// offering bids right now (set by the middleware).
	step *atomic.Int32

	offer   int32
	last    int64 // time of the previous event of the open offer
	dualOps int64
	vendors int64
}

func (o *spanObserver) OnBid(e *obs.BidEvent) {
	o.offer = o.rec.open(spanOffer, o.step.Load(), int32(e.TaskID))
	o.last = o.rec.now()
}

func (o *spanObserver) OnVendor(e *obs.VendorEvent) {
	now := o.rec.now()
	o.rec.add(spanDP, o.offer, int32(e.TaskID), o.last, now)
	o.last = now
	o.vendors++
}

func (o *spanObserver) OnDual(*obs.DualEvent) { o.dualOps++ }

func (o *spanObserver) OnOutcome(e *obs.OutcomeEvent) {
	o.latObserver.OnOutcome(e)
	now := o.rec.now()
	o.rec.add(spanCommit, o.offer, int32(e.TaskID), o.last, now)
	if o.offer >= 0 {
		s := &o.rec.spans[o.offer]
		s.end = now
		switch {
		case e.Admitted:
			s.tag = tagAdmitted
		case e.Reason == schedule.ReasonSurplus:
			s.tag = tagSurplus
		case e.Reason == schedule.ReasonNoSchedule:
			s.tag = tagNoSchedule
		case e.Reason == schedule.ReasonCapacity:
			s.tag = tagCapacity
		default:
			s.tag = tagOtherReject
		}
	}
}

// spanHeader carries the client's attempt/step span index to the server
// so the handler span can name its parent.
const spanHeader = "X-Bench-Span"

// frontDoor is the handler the loopback listener serves for the whole
// pass: it forwards to the current broker generation's handler (swapped
// on restore) and, on a traced pass, records one span per request.
type frontDoor struct {
	cur  atomic.Pointer[http.Handler]
	rec  *recorder // nil on an untraced pass
	step atomic.Int32
	// inflight lets the pass wait until every handler span is closed
	// before the spans are read.
	inflight sync.WaitGroup
}

func (d *frontDoor) swap(h http.Handler) { d.cur.Store(&h) }

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (d *frontDoor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := *d.cur.Load()
	if d.rec == nil {
		h.ServeHTTP(w, r)
		return
	}
	d.inflight.Add(1)
	defer d.inflight.Done()
	parent := int32(-1)
	if v, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 32); err == nil {
		parent = int32(v)
	}
	kind := spanHTTPBatch
	if r.URL.Path == "/v1/clock/step" {
		kind = spanHTTPStep
	}
	i := d.rec.open(kind, parent, -1)
	if kind == spanHTTPStep {
		d.step.Store(i)
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h.ServeHTTP(sw, r)
	d.rec.close(i)
	if i >= 0 {
		d.rec.spans[i].status = uint16(sw.status)
	}
}

func (r *recorder) check() error {
	if n := r.dropped.Load(); n > 0 {
		return fmt.Errorf("span memory exhausted: %d spans dropped (capacity %d)", n, len(r.spans))
	}
	return nil
}
