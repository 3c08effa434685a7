package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/pdftsp/pdftsp/internal/decision"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/schedule"
)

// TestRejectReasonRoundTrip: every reason, the zero value included,
// renders as its name and comes back as itself through each form it
// leaves the process in — text, the decision record's one-byte code (in
// the delta sidecar and the snapshot's decision section alike), the JSON
// snapshot's tally map key and a JSONL event.
// A name outside the set is refused, never read as some other reason.
func TestRejectReasonRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		reason schedule.RejectReason
		name   string
	}{
		{0, ""},
		{schedule.ReasonCapacity, "capacity"},
		{schedule.ReasonFailedNode, "failed-node"},
		{schedule.ReasonNoSchedule, "no-schedule"},
		{schedule.ReasonSurplus, "surplus"},
	} {
		text, err := tc.reason.MarshalText()
		var back schedule.RejectReason
		if err != nil || string(text) != tc.name || tc.reason.String() != tc.name ||
			back.UnmarshalText(text) != nil || back != tc.reason {
			t.Fatalf("%q: text %q (err %v), String %q, back %d", tc.name, text, err, tc.reason, back)
		}

		d := schedule.Decision{TaskID: 7, F: -1, Reason: tc.reason}
		s := new(decision.Store)
		if err := s.Put(7, &d); err != nil {
			t.Fatal(err)
		}
		data, _ := encodeSnapshot(&Checkpoint{Version: checkpointVersion, Decisions: s})
		ck, err := readSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := ck.Decisions.Get(7); got.Reason != tc.reason {
			t.Fatalf("%q: the snapshot reads back %d", tc.name, got.Reason)
		}
		tally, err := json.Marshal(map[schedule.RejectReason]int{tc.reason: 3})
		var tallyBack map[schedule.RejectReason]int
		if err != nil || string(tally) != `{"`+tc.name+`":3}` ||
			json.Unmarshal(tally, &tallyBack) != nil || tallyBack[tc.reason] != 3 {
			t.Fatalf("%q: tally %s (err %v) reads back %v", tc.name, tally, err, tallyBack)
		}

		var buf bytes.Buffer
		j := obs.NewJSONL(&buf)
		j.OnOutcome(&obs.OutcomeEvent{TaskID: 7, Reason: tc.reason})
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		var line struct{ Data obs.OutcomeEvent }
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil || line.Data.Reason != tc.reason ||
			strings.Contains(buf.String(), `"reason":"`+tc.name+`"`) != (tc.reason != 0) {
			t.Fatalf("%q: event %s reads back %d (err %v)", tc.name, buf.Bytes(), line.Data.Reason, err)
		}
	}

	var r schedule.RejectReason
	if err := r.UnmarshalText([]byte("custom")); err == nil {
		t.Fatal("an unknown reason name was accepted")
	}
	if _, err := (schedule.ReasonSurplus + 1).MarshalText(); err == nil {
		t.Fatal("an unknown reason code was rendered")
	}
	enc := decision.Append(nil, 7, &schedule.Decision{TaskID: 7, Reason: schedule.ReasonSurplus + 1})
	if _, err := new(decision.Store).ReadList(&decision.Reader{B: append(enc, decision.End)}); err == nil {
		t.Fatal("a decision record with an unknown reason code was accepted")
	}
}
