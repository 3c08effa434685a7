package obs

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/pdftsp/pdftsp/internal/decision"
	"github.com/pdftsp/pdftsp/internal/schedule"
)

// declogDecision is bid i's decision: every third rejected with −Inf F and
// a losing candidate plan the log must leave out, the rest admitted with
// money terms and a plan, every fourth with DualsUpdated.
func declogDecision(i int) schedule.Decision {
	d := schedule.Decision{
		TaskID:       i,
		Admitted:     i%3 != 0,
		DualsUpdated: i%4 == 0,
		F:            float64(i) * 0.25,
		Schedule: &schedule.Schedule{TaskID: i, Vendor: i % 2, VendorPrice: float64(i) / 8, VendorDelay: i % 3,
			Placements: []schedule.Placement{{Node: i % 4, Slot: i % 24}, {Node: (i + 1) % 4, Slot: i%24 + 1}}},
	}
	if d.Admitted {
		d.Terms = schedule.NewTerms(float64(i)*1.25, 2.5, 0.75)
	} else {
		d.Reason, d.F = schedule.ReasonSurplus, math.Inf(-1)
	}
	return d
}

// declogRun writes one run — start frame, outcomes for ids, end frame —
// through l.
func declogRun(l *DecisionLog, run string, ids ...int) {
	l.OnRunStart(&RunStartEvent{Run: run, Sched: "pdftsp", Nodes: 4, Slots: 24})
	for _, i := range ids {
		d := declogDecision(i)
		l.OnOutcome(&OutcomeEvent{TaskID: i, Slot: i % 24, Admitted: d.Admitted, Decision: &d})
	}
	l.OnRunEnd(&RunEndEvent{Welfare: 123.456, Revenue: 78.9, Admitted: 2 * len(ids) / 3, Rejected: len(ids) - 2*len(ids)/3})
}

// declogFixture writes a run of n outcomes and returns the encoded bytes.
func declogFixture(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	l := NewDecisionLog(&buf)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	declogRun(l, "declog-test", ids...)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := l.Count(); got != int64(n) {
		t.Fatalf("Count %d, want %d", got, n)
	}
	return buf.Bytes()
}

// wantRecord is what the log reads back for bid i: its slot and its
// decision, a losing bid's plan left out.
func wantRecord(i int) DecisionRecord {
	d := declogDecision(i)
	if !d.Admitted {
		d.Schedule = nil
	}
	return DecisionRecord{Slot: i % 24, Decision: d}
}

// TestDecisionLogRoundTrip writes a run through the binary log and reads
// it back: every field of every decision, each record's slot, the run
// frame and the end accounting must survive — including −Inf F, which
// JSON cannot carry but raw float bits can.
func TestDecisionLogRoundTrip(t *testing.T) {
	const n = 50
	sum, recs, err := ReadDecisionLog(bytes.NewReader(declogFixture(t, n)))
	if err != nil {
		t.Fatalf("ReadDecisionLog: %v", err)
	}
	want := DecisionLogSummary{Run: "declog-test", Sched: "pdftsp", Nodes: 4, Slots: 24,
		Welfare: 123.456, Revenue: 78.9, Admitted: 2 * n / 3, Rejected: n - 2*n/3, Ended: true}
	if sum != want {
		t.Fatalf("summary %+v, want %+v", sum, want)
	}
	if len(recs) != n {
		t.Fatalf("%d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if w := wantRecord(i); !reflect.DeepEqual(r, w) {
			t.Fatalf("record %d: %+v, want %+v", i, r, w)
		}
	}
	if !math.IsInf(recs[0].F, -1) || recs[1].Terms == nil || recs[1].Schedule == nil || !recs[4].DualsUpdated {
		t.Fatal("the fixture no longer covers −Inf F, money terms, an admitted plan and DualsUpdated")
	}
}

// TestDecisionLogSharedIDs: one log handed to two runs (shards, or a
// resumed broker re-deciding journaled bids) holds both runs'
// records for a repeated ID, in emission order.
func TestDecisionLogSharedIDs(t *testing.T) {
	var buf bytes.Buffer
	l := NewDecisionLog(&buf)
	declogRun(l, "first", 1, 2, 3)
	declogRun(l, "second", 3, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sum, recs, err := ReadDecisionLog(&buf)
	if err != nil || sum.Run != "second" || !sum.Ended {
		t.Fatalf("summary %+v, err %v; want the second run's, ended", sum, err)
	}
	var got []int
	for i, r := range recs {
		got = append(got, r.TaskID)
		if w := wantRecord(r.TaskID); !reflect.DeepEqual(r, w) {
			t.Fatalf("record %d: %+v, want %+v", i, r, w)
		}
	}
	if want := []int{1, 2, 3, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("records for %v, want %v", got, want)
	}
}

// TestDecisionLogRecordBytes: an outcome's frame holds the kind, the slot
// and exactly decision.Append's bytes — the one record encoding.
func TestDecisionLogRecordBytes(t *testing.T) {
	for _, i := range []int{3, 7} { // a rejected bid with a losing plan, an admitted one
		var buf bytes.Buffer
		l := NewDecisionLog(&buf)
		d := declogDecision(i)
		l.OnOutcome(&OutcomeEvent{TaskID: i, Slot: 5, Decision: &d})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		r := &decision.Reader{B: buf.Bytes()[len(declogMagic):]}
		if v := r.U64(); v != declogVersion {
			t.Fatalf("version %d, want %d", v, declogVersion)
		}
		payload := decision.FrameNext(r)
		if payload == nil || len(r.B) != 0 {
			t.Fatalf("bid %d: not one whole frame after the header (%d bytes left)", i, len(r.B))
		}
		want := wantRecord(i).Decision
		if rec := decision.Append(decision.AppendInt([]byte{declogOutcome}, 5), i, &want); !bytes.Equal(payload, rec) {
			t.Fatalf("bid %d: payload %x, want kind, slot and decision.Append's %x", i, payload, rec)
		}
	}
}

// TestDecisionLogTruncated chops the log mid-frame — the writer crashed —
// and flips a byte in it — bitrot — and asserts the reader yields every
// whole record before the damage, flags the run as unended, and reports it.
func TestDecisionLogTruncated(t *testing.T) {
	const n = 50
	data := declogFixture(t, n)
	_, full, err := ReadDecisionLog(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(data)
	flipped[len(data)/2] ^= 0x10
	for name, bad := range map[string][]byte{"torn": data[:len(data)-30], "flipped": flipped} {
		sum, recs, err := ReadDecisionLog(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("%s log decoded without error", name)
		}
		if sum.Ended {
			t.Fatalf("%s log claims a clean end", name)
		}
		if len(recs) == 0 || len(recs) >= n {
			t.Fatalf("%s log yielded %d records, want a proper prefix of %d", name, len(recs), n)
		}
		for i, r := range recs {
			if !reflect.DeepEqual(r, full[i]) {
				t.Fatalf("%s log: prefix record %d differs from the full read", name, i)
			}
		}
	}

	// Garbage header: refused outright.
	bad := append([]byte("NOTALOG!"), data[8:]...)
	if _, _, err := ReadDecisionLog(bytes.NewReader(bad)); err == nil {
		t.Fatal("foreign magic accepted")
	}
}

// TestDecisionLogVersion: a v1 log — unframed, its first byte after the
// magic a run start's kind — is refused by version, never read as empty.
func TestDecisionLogVersion(t *testing.T) {
	v1 := append(append([]byte(nil), declogMagic...), declogRunStart, 4)
	v1 = append(v1, "test"...)
	if _, recs, err := ReadDecisionLog(bytes.NewReader(v1)); !errors.Is(err, decision.ErrFormatVersion) || recs != nil {
		t.Fatalf("a v1 log: %d records, err %v; want decision.ErrFormatVersion", len(recs), err)
	}
}

// TestDecisionLogClaimedLength: a frame's length is a claim until its bytes
// arrive. A log whose frame claims 2^40 or 2^62 bytes must fail as a short
// read, allocating for the bytes present, not for the claim.
func TestDecisionLogClaimedLength(t *testing.T) {
	for _, claim := range []uint64{1 << 40, 1 << 62, 1<<64 - 1, 4097} {
		log := decision.AppendU64(append([]byte(nil), declogMagic...), declogVersion)
		log = append(decision.AppendU64(log, claim), "crc!declog-test"...)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, _, err := ReadDecisionLog(bytes.NewReader(log))
		runtime.ReadMemStats(&m1)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("a %d-byte frame with 11 bytes behind it: err %v, want a short read", claim, err)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
			t.Errorf("a %d-byte frame claim allocated %d bytes", claim, grew)
		}
	}
}
