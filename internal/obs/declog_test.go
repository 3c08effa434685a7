package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/pdftsp/pdftsp/internal/schedule"
)

// declogFixture writes a small run — start frame, n outcomes, end frame —
// and returns the encoded bytes.
func declogFixture(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	l := NewDecisionLog(&buf)
	l.OnRunStart(&RunStartEvent{Run: "declog-test", Sched: "pdftsp", Nodes: 4, Slots: 24})
	for i := 0; i < n; i++ {
		ev := &OutcomeEvent{
			TaskID:   i,
			Slot:     i % 24,
			Bid:      float64(i) * 1.5,
			Admitted: i%3 != 0,
			Surplus:  float64(i) * 0.25,
			Payment:  float64(i) * 1.25,
		}
		if !ev.Admitted {
			ev.Reason = schedule.ReasonSurplus
			ev.Surplus = math.Inf(-1)
		} else {
			ev.VendorCost = 2.5
			ev.EnergyCost = 0.75
			ev.Placements = []Placement{{Node: i % 4, Slot: i % 24, Work: 3}, {Node: (i + 1) % 4, Slot: i % 24, Work: 2}}
		}
		l.OnOutcome(ev)
	}
	l.OnRunEnd(&RunEndEvent{Welfare: 123.456, Revenue: 78.9, Admitted: 2 * n / 3, Rejected: n - 2*n/3})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := l.Count(); got != int64(n) {
		t.Fatalf("Count %d, want %d", got, n)
	}
	return buf.Bytes()
}

// TestDecisionLogRoundTrip writes a run through the binary log and reads
// it back: every field of every record, the run frame, and the end
// accounting must survive — including -Inf surpluses, which JSON cannot
// carry but raw float bits can.
func TestDecisionLogRoundTrip(t *testing.T) {
	const n = 50
	data := declogFixture(t, n)

	sum, recs, err := ReadDecisionLog(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadDecisionLog: %v", err)
	}
	if !sum.Ended {
		t.Fatal("complete log decoded with Ended=false")
	}
	if sum.Run != "declog-test" || sum.Sched != "pdftsp" || sum.Nodes != 4 || sum.Slots != 24 {
		t.Fatalf("run frame mangled: %+v", sum)
	}
	if sum.Welfare != 123.456 || sum.Revenue != 78.9 {
		t.Fatalf("end accounting mangled: %+v", sum)
	}
	if len(recs) != n {
		t.Fatalf("%d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.TaskID != i || r.Slot != i%24 || r.Bid != float64(i)*1.5 || r.Payment != float64(i)*1.25 {
			t.Fatalf("record %d mangled: %+v", i, r)
		}
		if i%3 == 0 {
			if r.Admitted || r.Reason != "surplus" || !math.IsInf(r.Surplus, -1) {
				t.Fatalf("rejected record %d mangled: %+v", i, r)
			}
			if len(r.Placements) != 0 {
				t.Fatalf("rejected record %d has placements", i)
			}
		} else {
			if !r.Admitted || r.VendorCost != 2.5 || r.EnergyCost != 0.75 {
				t.Fatalf("admitted record %d mangled: %+v", i, r)
			}
			want := []Placement{{Node: i % 4, Slot: i % 24, Work: 3}, {Node: (i + 1) % 4, Slot: i % 24, Work: 2}}
			if len(r.Placements) != 2 || r.Placements[0] != want[0] || r.Placements[1] != want[1] {
				t.Fatalf("record %d placements mangled: %+v", i, r.Placements)
			}
		}
	}
}

// TestDecisionLogTruncated chops the log mid-record — the writer
// crashed — and asserts the reader yields every complete record, flags
// the run as unended, and reports the torn tail.
func TestDecisionLogTruncated(t *testing.T) {
	const n = 50
	data := declogFixture(t, n)

	_, full, err := ReadDecisionLog(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sum, recs, err := ReadDecisionLog(bytes.NewReader(data[:len(data)-30]))
	if err == nil {
		t.Fatal("torn tail decoded without error")
	}
	if sum.Ended {
		t.Fatal("truncated log claims a clean end")
	}
	if len(recs) == 0 || len(recs) >= n {
		t.Fatalf("truncated log yielded %d records, want a proper prefix of %d", len(recs), n)
	}
	for i, r := range recs {
		if !reflect.DeepEqual(r, full[i]) {
			t.Fatalf("prefix record %d differs from the full read", i)
		}
	}

	// Garbage header: refused outright.
	bad := append([]byte("NOTALOG!"), data[8:]...)
	if _, _, err := ReadDecisionLog(bytes.NewReader(bad)); err == nil {
		t.Fatal("foreign magic accepted")
	}
}

// TestDecisionLogClaimedLength: a string's length is a claim until its
// bytes arrive. A log that is only a run start claiming a 2^40-byte or a
// 2^62-byte run label must fail as a short read, allocating for the bytes
// present, not for the claim (once that was an unrecoverable out-of-memory
// crash, or a makeslice panic).
func TestDecisionLogClaimedLength(t *testing.T) {
	for _, claim := range []uint64{1 << 40, 1 << 62, 1<<64 - 1, 4097} {
		log := append(append([]byte(nil), declogMagic...), declogRunStart)
		log = append(binary.AppendUvarint(log, claim), "declog-test"...)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, _, err := ReadDecisionLog(bytes.NewReader(log))
		runtime.ReadMemStats(&m1)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("a %d-byte label with %d bytes behind it: err %v, want a short read", claim, len("declog-test"), err)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
			t.Errorf("a %d-byte label claim allocated %d bytes", claim, grew)
		}
	}
}
