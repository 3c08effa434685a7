package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/schedule"
)

// TestRejectReasonRoundTrip: every reason, the zero value included,
// renders as its name and comes back as itself through each form it
// leaves the process in — text, the delta record's one-byte code, the
// JSON snapshot (a decision and the tally's map key) and a JSONL event.
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
		{schedule.ReasonVendorDown, "vendor-down"},
	} {
		text, err := tc.reason.MarshalText()
		var back schedule.RejectReason
		if err != nil || string(text) != tc.name || tc.reason.String() != tc.name ||
			back.UnmarshalText(text) != nil || back != tc.reason {
			t.Fatalf("%q: text %q (err %v), String %q, back %d", tc.name, text, err, tc.reason, back)
		}

		d := schedule.Decision{TaskID: 7, F: -1, Reason: tc.reason}
		enc := appendDecision(nil, 7, &d)
		r := &binReader{b: enc[1:]}
		if _, got := readDecision(r, enc[0], new(schedule.Schedule)); r.err != nil || len(r.b) != 0 || got.Reason != tc.reason {
			t.Fatalf("%q: the delta record reads back %d (err %v)", tc.name, got.Reason, r.err)
		}

		s := new(decisionStore)
		if err := s.put(7, &d); err != nil {
			t.Fatal(err)
		}
		snap, err := json.Marshal(s)
		wantKey := `"Reason":"` + tc.name + `"`
		if err != nil || strings.Contains(string(snap), wantKey) != (tc.reason != 0) {
			t.Fatalf("%q: snapshot section %s (err %v)", tc.name, snap, err)
		}
		restored := new(decisionStore)
		if err := json.Unmarshal(snap, restored); err != nil {
			t.Fatal(err)
		}
		if got, _ := restored.get(7); got.Reason != tc.reason {
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
	if err := json.Unmarshal([]byte(`[{"TaskID":1,"Reason":"custom"}]`), new(decisionStore)); err == nil {
		t.Fatal("a snapshot with an unknown reason name was accepted")
	}
	if _, err := (schedule.ReasonVendorDown + 1).MarshalText(); err == nil {
		t.Fatal("an unknown reason code was rendered")
	}
	enc := appendDecision(nil, 7, &schedule.Decision{TaskID: 7, Reason: schedule.ReasonVendorDown + 1})
	dec := &binReader{b: enc[1:]}
	if readDecision(dec, enc[0], new(schedule.Schedule)); dec.err == nil {
		t.Fatal("a delta record with an unknown reason code was accepted")
	}
}
