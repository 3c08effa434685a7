package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
)

// JSONL writes every event as one JSON line:
//
//	{"ev":"bid","seq":17,"data":{...}}
//
// ev is the event kind, seq a global sequence number (the interleaving
// order the sink observed — with parallel runs, per-run order is
// recovered by grouping on data.run). It is safe for concurrent use.
type JSONL struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	enc *json.Encoder
	seq int64
	err error
}

// jsonlRecord is the wire envelope for one event line.
type jsonlRecord struct {
	Ev   string `json:"ev"`
	Seq  int64  `json:"seq"`
	Data any    `json:"data"`
}

// Event kind tags used on the wire.
const (
	KindRunStart = "run_start"
	KindBid      = "bid"
	KindVendor   = "vendor"
	KindDual     = "dual"
	KindPayment  = "payment"
	KindOutcome  = "outcome"
	KindFailure  = "failure"
	KindRunEnd   = "run_end"
)

// NewJSONL writes events to w. Call Close to flush.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &JSONL{w: bw, enc: json.NewEncoder(bw)}
}

// NewJSONLFile creates (truncating) path and writes events to it.
func NewJSONLFile(path string) (*JSONL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: create trace file: %w", err)
	}
	j := NewJSONL(f)
	j.c = f
	return j, nil
}

// AppendJSONLFile reopens the trace at path to extend it, as a restarted
// broker does: the file is cut behind its last whole line (a line a crash
// tore goes) and new events follow. A missing file starts a fresh trace;
// a file that does not start as one is refused and left as it is.
func AppendJSONLFile(path string) (*JSONL, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return NewJSONLFile(path)
	}
	if err == nil && len(data) > 0 && !bytes.HasPrefix(data, []byte(`{"ev":`)) {
		err = fmt.Errorf("%s is not a JSONL trace", path)
	}
	var f *os.File
	if err == nil {
		f, err = reopen(path, bytes.LastIndexByte(data, '\n')+1)
	}
	if err != nil {
		return nil, fmt.Errorf("obs: trace file: %w", err)
	}
	j := NewJSONL(f)
	j.c = f
	return j, nil
}

// Close flushes buffered lines and closes the underlying file, if any.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	ferr := j.w.Flush()
	if j.err == nil {
		j.err = ferr
	}
	if j.c != nil {
		cerr := j.c.Close()
		if j.err == nil {
			j.err = cerr
		}
		j.c = nil
	}
	return j.err
}

// Err returns the first write error encountered, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

func (j *JSONL) write(kind string, data any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.seq++
	if err := j.enc.Encode(jsonlRecord{Ev: kind, Seq: j.seq, Data: data}); err != nil {
		j.err = err
	}
}

// OnRunStart implements Observer.
func (j *JSONL) OnRunStart(e *RunStartEvent) { j.write(KindRunStart, e) }

// OnBid implements Observer.
func (j *JSONL) OnBid(e *BidEvent) { j.write(KindBid, e) }

// OnVendor implements Observer.
func (j *JSONL) OnVendor(e *VendorEvent) { j.write(KindVendor, e) }

// OnDual implements Observer.
func (j *JSONL) OnDual(e *DualEvent) { j.write(KindDual, e) }

// OnPayment implements Observer.
func (j *JSONL) OnPayment(e *PaymentEvent) { j.write(KindPayment, e) }

// OnOutcome implements Observer.
func (j *JSONL) OnOutcome(e *OutcomeEvent) { j.write(KindOutcome, e) }

// OnFailure implements FailureObserver.
func (j *JSONL) OnFailure(e *FailureEvent) { j.write(KindFailure, e) }

// OnRunEnd implements Observer.
func (j *JSONL) OnRunEnd(e *RunEndEvent) { j.write(KindRunEnd, e) }
