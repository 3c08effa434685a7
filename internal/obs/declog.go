package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// DecisionLog is a streamed binary sink for the outcome stream — the
// fast-path replacement for JSONL when the consumer only needs the
// per-bid decisions. One outcome is a few dozen varint-packed bytes and
// zero allocations, against ~300 bytes and an Encoder round trip per
// JSONL record; on million-bid horizons that is the difference between
// the sink disappearing into the noise and dominating the broker's
// core goroutine.
//
// The format is length-free and append-ordered: a magic header, then
// one record per event — run_start, outcome (the bulk), run_end — each
// a kind byte followed by fixed fields. Integers are varints, floats
// raw IEEE-754 bits. ReadDecisionLog decodes a complete log; a log cut
// off mid-record (crash) decodes up to the truncation point.
type DecisionLog struct {
	mu    sync.Mutex
	w     *bufio.Writer
	c     io.Closer
	buf   []byte
	count int64
	err   error

	Base
}

// declogMagic opens every decision log.
var declogMagic = []byte("PDFTSPL\x01")

// Record kinds.
const (
	declogRunStart = 1
	declogOutcome  = 2
	declogRunEnd   = 3
)

// NewDecisionLog writes the binary decision log to w.
func NewDecisionLog(w io.Writer) *DecisionLog {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.Write(declogMagic)
	return &DecisionLog{w: bw}
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
func (l *DecisionLog) Count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

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
	ferr := l.w.Flush()
	if l.err == nil {
		l.err = ferr
	}
	if l.c != nil {
		cerr := l.c.Close()
		l.c = nil
		if l.err == nil {
			l.err = cerr
		}
	}
	return l.err
}

func (l *DecisionLog) write(p []byte) {
	if _, err := l.w.Write(p); err != nil && l.err == nil {
		l.err = err
	}
}

// OnRunStart implements Observer.
func (l *DecisionLog) OnRunStart(e *RunStartEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := append(l.buf[:0], declogRunStart)
	b = dlStr(b, e.Run)
	b = dlStr(b, e.Sched)
	b = binary.AppendVarint(b, int64(e.Nodes))
	b = binary.AppendVarint(b, int64(e.Slots))
	l.buf = b
	l.write(b)
}

// OnOutcome implements Observer; this is the hot record.
func (l *DecisionLog) OnOutcome(e *OutcomeEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := append(l.buf[:0], declogOutcome)
	b = binary.AppendVarint(b, int64(e.TaskID))
	b = binary.AppendVarint(b, int64(e.Slot))
	b = dlF64(b, e.Bid)
	if e.Admitted {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = dlStr(b, string(e.Reason))
	b = dlF64(b, e.Surplus)
	b = dlF64(b, e.Payment)
	b = dlF64(b, e.VendorCost)
	b = dlF64(b, e.EnergyCost)
	b = binary.AppendUvarint(b, uint64(len(e.Placements)))
	for _, p := range e.Placements {
		b = binary.AppendVarint(b, int64(p.Node))
		b = binary.AppendVarint(b, int64(p.Slot))
		b = binary.AppendVarint(b, int64(p.Work))
	}
	l.buf = b
	l.write(b)
	l.count++
}

// OnRunEnd implements Observer and flushes: the log is complete and
// readable the moment the run ends, even if Close never runs.
func (l *DecisionLog) OnRunEnd(e *RunEndEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := append(l.buf[:0], declogRunEnd)
	b = dlF64(b, e.Welfare)
	b = dlF64(b, e.Revenue)
	b = binary.AppendVarint(b, int64(e.Admitted))
	b = binary.AppendVarint(b, int64(e.Rejected))
	l.buf = b
	l.write(b)
	if err := l.w.Flush(); err != nil && l.err == nil {
		l.err = err
	}
}

func dlStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func dlF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// DecisionRecord is one decoded outcome from a DecisionLog.
type DecisionRecord struct {
	TaskID     int
	Slot       int
	Bid        float64
	Admitted   bool
	Reason     string
	Surplus    float64
	Payment    float64
	VendorCost float64
	EnergyCost float64
	Placements []Placement
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

// ReadDecisionLog decodes a binary decision log. A log truncated
// mid-record (the writer crashed) yields every complete record plus a
// non-nil error for the torn tail.
func ReadDecisionLog(r io.Reader) (DecisionLogSummary, []DecisionRecord, error) {
	var sum DecisionLogSummary
	br := bufio.NewReader(r)
	magic := make([]byte, len(declogMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return sum, nil, fmt.Errorf("obs: decision log header: %w", err)
	}
	if string(magic) != string(declogMagic) {
		return sum, nil, fmt.Errorf("obs: not a decision log")
	}
	var recs []DecisionRecord
	for {
		kind, err := br.ReadByte()
		if err == io.EOF {
			return sum, recs, nil
		}
		if err != nil {
			return sum, recs, err
		}
		switch kind {
		case declogRunStart:
			if sum.Run, err = dlReadStr(br); err != nil {
				return sum, recs, err
			}
			if sum.Sched, err = dlReadStr(br); err != nil {
				return sum, recs, err
			}
			var n, s int64
			if n, err = binary.ReadVarint(br); err != nil {
				return sum, recs, err
			}
			if s, err = binary.ReadVarint(br); err != nil {
				return sum, recs, err
			}
			sum.Nodes, sum.Slots = int(n), int(s)
		case declogOutcome:
			var rec DecisionRecord
			if rec, err = dlReadOutcome(br); err != nil {
				return sum, recs, err
			}
			recs = append(recs, rec)
		case declogRunEnd:
			if sum.Welfare, err = dlReadF64(br); err != nil {
				return sum, recs, err
			}
			if sum.Revenue, err = dlReadF64(br); err != nil {
				return sum, recs, err
			}
			var a, j int64
			if a, err = binary.ReadVarint(br); err != nil {
				return sum, recs, err
			}
			if j, err = binary.ReadVarint(br); err != nil {
				return sum, recs, err
			}
			sum.Admitted, sum.Rejected = int(a), int(j)
			sum.Ended = true
		default:
			return sum, recs, fmt.Errorf("obs: decision log: unknown record kind %d", kind)
		}
	}
}

func dlReadOutcome(br *bufio.Reader) (DecisionRecord, error) {
	var rec DecisionRecord
	id, err := binary.ReadVarint(br)
	if err != nil {
		return rec, err
	}
	slot, err := binary.ReadVarint(br)
	if err != nil {
		return rec, err
	}
	rec.TaskID, rec.Slot = int(id), int(slot)
	if rec.Bid, err = dlReadF64(br); err != nil {
		return rec, err
	}
	adm, err := br.ReadByte()
	if err != nil {
		return rec, err
	}
	rec.Admitted = adm != 0
	if rec.Reason, err = dlReadStr(br); err != nil {
		return rec, err
	}
	if rec.Surplus, err = dlReadF64(br); err != nil {
		return rec, err
	}
	if rec.Payment, err = dlReadF64(br); err != nil {
		return rec, err
	}
	if rec.VendorCost, err = dlReadF64(br); err != nil {
		return rec, err
	}
	if rec.EnergyCost, err = dlReadF64(br); err != nil {
		return rec, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return rec, err
	}
	for i := uint64(0); i < n; i++ {
		var p Placement
		var node, slot, work int64
		if node, err = binary.ReadVarint(br); err != nil {
			return rec, err
		}
		if slot, err = binary.ReadVarint(br); err != nil {
			return rec, err
		}
		if work, err = binary.ReadVarint(br); err != nil {
			return rec, err
		}
		p.Node, p.Slot, p.Work = int(node), int(slot), int(work)
		rec.Placements = append(rec.Placements, p)
	}
	return rec, nil
}

func dlReadStr(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func dlReadF64(br *bufio.Reader) (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}
