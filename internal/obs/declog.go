package obs

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"github.com/pdftsp/pdftsp/internal/decision"
	"github.com/pdftsp/pdftsp/internal/schedule"
)

// DecisionLog is a binary sink for the outcome stream: an outcome costs one
// internal/decision record and no allocation. The file is a magic, a
// uvarint version, then one decision.AppendFrame frame per event in
// emission order: a kind byte, then a run start's run, scheduler, nodes
// and slots; an outcome's arrival slot and decision.Append's record; a run
// end's welfare, revenue, admitted and rejected. It is not synced, only
// flushed at each run end and on Close.
type DecisionLog struct {
	mu    sync.Mutex
	w     *bufio.Writer
	c     io.Closer
	buf   []byte // one event's frame, its payload built behind room for its head
	count atomic.Int64
	err   error

	Base
}

// declogMagic opens every decision log and declogVersion follows it; v1
// was an unframed varint record per event.
var declogMagic = []byte("PDFTSPL\x01")

const declogVersion = 2

// Event kinds, a payload's first byte.
const (
	declogRunStart = 1
	declogOutcome  = 2
	declogRunEnd   = 3
)

// NewDecisionLog writes the binary decision log to w.
func NewDecisionLog(w io.Writer) *DecisionLog {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.Write(decision.AppendU64(append([]byte(nil), declogMagic...), declogVersion))
	return &DecisionLog{w: bw, buf: make([]byte, 0, 256)}
}

// NewDecisionLogFile creates (truncating) a decision log at path.
func NewDecisionLogFile(path string) (*DecisionLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: decision log: %w", err)
	}
	l := NewDecisionLog(f)
	l.c = f
	return l, nil
}

// Count returns the number of outcome records written so far.
func (l *DecisionLog) Count() int64 { return l.count.Load() }

// Err returns the first write error, if any.
func (l *DecisionLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close flushes and closes the underlying file (if the log owns one).
func (l *DecisionLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.err = cmp.Or(l.err, l.w.Flush())
	if l.c != nil {
		l.err = cmp.Or(l.err, l.c.Close())
		l.c = nil
	}
	return l.err
}

// emit frames p, an event's payload built in buf behind room for its
// frame head (buf[:decision.MaxFrameHead]), in place and writes the frame.
func (l *DecisionLog) emit(p []byte) {
	l.buf = decision.AppendFrame(p[:0], p[decision.MaxFrameHead:])
	if _, err := l.w.Write(l.buf); err != nil && l.err == nil {
		l.err = err
	}
}

// OnRunStart implements Observer.
func (l *DecisionLog) OnRunStart(e *RunStartEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := decision.AppendStr(decision.AppendStr(append(l.buf[:decision.MaxFrameHead], declogRunStart), e.Run), e.Sched)
	l.emit(decision.AppendInt(decision.AppendInt(p, e.Nodes), e.Slots))
}

// OnOutcome implements Observer: the hot record, read from e.Decision.
func (l *DecisionLog) OnOutcome(e *OutcomeEvent) {
	d := *e.Decision
	if !d.Admitted {
		d.Schedule = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.emit(decision.Append(decision.AppendInt(append(l.buf[:decision.MaxFrameHead], declogOutcome), e.Slot), e.TaskID, &d))
	l.count.Add(1)
}

// OnRunEnd implements Observer and flushes: the log is complete and
// readable the moment the run ends, even if Close never runs.
func (l *DecisionLog) OnRunEnd(e *RunEndEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := decision.AppendF64(decision.AppendF64(append(l.buf[:decision.MaxFrameHead], declogRunEnd), e.Welfare), e.Revenue)
	l.emit(decision.AppendInt(decision.AppendInt(p, e.Admitted), e.Rejected))
	l.err = cmp.Or(l.err, l.w.Flush())
}

// DecisionRecord is one decoded outcome: the bid's arrival slot and decision.
type DecisionRecord struct {
	Slot int
	schedule.Decision
}

// DecisionLogSummary is the decoded run frame of a DecisionLog.
type DecisionLogSummary struct {
	Run      string
	Sched    string
	Nodes    int
	Slots    int
	Welfare  float64
	Revenue  float64
	Admitted int
	Rejected int
	// Ended reports that a run_end record was seen (a crash-truncated
	// log decodes with Ended false).
	Ended bool
}

// ReadDecisionLog decodes a decision log, one record per outcome in the
// order written (runs may share a log, so an ID may repeat). A torn or
// corrupt tail yields every whole record before it and an error; another
// format version is decision.ErrFormatVersion.
func ReadDecisionLog(r io.Reader) (sum DecisionLogSummary, recs []DecisionRecord, err error) {
	data, err := io.ReadAll(r)
	if err != nil || !bytes.HasPrefix(data, declogMagic) {
		return sum, nil, fmt.Errorf("obs: not a decision log (err %v)", err)
	}
	rest, err := decision.FramedPrefix(data, declogMagic, declogVersion, func(*decision.Reader) bool { return true },
		func(payload []byte) error {
			r := &decision.Reader{B: payload}
			switch kind := r.Byte(); kind {
			case declogRunStart:
				sum.Run, sum.Sched, sum.Nodes, sum.Slots = r.Str(), r.Str(), r.Int(), r.Int()
			case declogOutcome:
				rec := DecisionRecord{Slot: r.Int()}
				if _, rec.Decision = decision.Read(r); r.Err == nil {
					recs = append(recs, rec)
				}
			case declogRunEnd:
				sum.Welfare, sum.Revenue, sum.Admitted, sum.Rejected = r.F64(), r.F64(), r.Int(), r.Int()
				sum.Ended = r.Err == nil
			default:
				return fmt.Errorf("obs: decision log: unknown event kind %d", kind)
			}
			return r.Err
		})
	if err == nil && rest > 0 {
		err = fmt.Errorf("obs: decision log: a torn or corrupt frame after %d records, %d bytes: %w", len(recs), rest, io.ErrUnexpectedEOF)
	}
	return sum, recs, err
}
