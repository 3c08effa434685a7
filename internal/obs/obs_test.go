package obs

import (
	"bytes"
	"strings"
	"testing"

	"github.com/pdftsp/pdftsp/internal/schedule"
)

// recorder counts events and keeps the last of each kind.
type recorder struct {
	Base
	bids     int
	outcomes int
	lastBid  BidEvent
}

func (r *recorder) OnBid(e *BidEvent)       { r.bids++; r.lastBid = *e }
func (r *recorder) OnOutcome(*OutcomeEvent) { r.outcomes++ }

func TestMultiDropsNilsAndUnwraps(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of nothing should be nil")
	}
	r := &recorder{}
	if Multi(nil, r) != Observer(r) {
		t.Fatal("Multi of one observer should unwrap it")
	}
	r2 := &recorder{}
	m := Multi(r, r2)
	m.OnBid(&BidEvent{TaskID: 7})
	if r.bids != 1 || r2.bids != 1 {
		t.Fatalf("fan-out missed an observer: %d/%d", r.bids, r2.bids)
	}
}

func TestStampFillsRunAndSched(t *testing.T) {
	if Stamp(nil, "r", "s") != nil {
		t.Fatal("stamping nil should stay nil")
	}
	r := &recorder{}
	st := Stamp(r, "fig4/seed1", "pdFTSP")
	st.OnBid(&BidEvent{TaskID: 3})
	if r.lastBid.Run != "fig4/seed1" || r.lastBid.Sched != "pdFTSP" {
		t.Fatalf("event not stamped: %+v", r.lastBid)
	}
}

// TestJSONLRoundTrip writes a small synthetic run and reads it back with
// the analyzer, checking the recomputed accounting and the -check logic.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	o := Stamp(j, "run1", "test")
	o.OnRunStart(&RunStartEvent{Nodes: 2, Slots: 4, CapWork: []int{10, 10}})
	o.OnBid(&BidEvent{TaskID: 1, Bid: 50})
	o.OnOutcome(&OutcomeEvent{
		TaskID: 1, Bid: 50, Admitted: true, Payment: 30, VendorCost: 5, EnergyCost: 10,
		Placements: []Placement{{Node: 0, Slot: 1, Work: 6}, {Node: 1, Slot: 2, Work: 4}},
	})
	o.OnBid(&BidEvent{TaskID: 2, Bid: 20})
	o.OnOutcome(&OutcomeEvent{TaskID: 2, Bid: 20, Reason: schedule.ReasonCapacity, DualsUpdated: true})
	o.OnRunEnd(&RunEndEvent{Welfare: 35, Revenue: 30, Admitted: 1, Rejected: 1})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	sum, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Runs) != 1 {
		t.Fatalf("want 1 run, got %d", len(sum.Runs))
	}
	rs := sum.Runs[0]
	if rs.Run != "run1" || rs.Sched != "test" {
		t.Fatalf("labels lost: %q/%q", rs.Run, rs.Sched)
	}
	if rs.Offers != 2 || rs.Admitted != 1 || rs.Rejected != 1 {
		t.Fatalf("counts wrong: %d/%d/%d", rs.Offers, rs.Admitted, rs.Rejected)
	}
	if rs.Welfare != 35 || rs.Revenue != 30 {
		t.Fatalf("money wrong: %v/%v", rs.Welfare, rs.Revenue)
	}
	if rs.CapacityRejects != 1 || rs.DualsMovedOnly != 1 {
		t.Fatalf("Lemma-1 accounting wrong: %d/%d", rs.CapacityRejects, rs.DualsMovedOnly)
	}
	if rs.SlotWork[0][1] != 6 || rs.SlotWork[1][2] != 4 {
		t.Fatalf("placement work lost: %v", rs.SlotWork)
	}
	checked, err := sum.Check()
	if err != nil || checked != 1 {
		t.Fatalf("check: %d, %v", checked, err)
	}
	var report strings.Builder
	sum.WriteText(&report)
	for _, want := range []string{"run1", "capacity", "welfare curve", "utilization heat"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("report missing %q:\n%s", want, report.String())
		}
	}
}

func TestCheckDetectsMismatch(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	o := Stamp(j, "r", "s")
	o.OnOutcome(&OutcomeEvent{TaskID: 1, Bid: 10, Admitted: true})
	// The run claims a different welfare than the decisions support.
	o.OnRunEnd(&RunEndEvent{Welfare: 99, Admitted: 1})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sum.Check(); err == nil {
		t.Fatal("welfare mismatch not detected")
	}
}

func TestCheckSkipsFailureRuns(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	o := Stamp(j, "r", "s")
	o.OnOutcome(&OutcomeEvent{TaskID: 1, Bid: 10, Admitted: true})
	o.OnRunEnd(&RunEndEvent{Welfare: 99, Admitted: 1, Failures: 2})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := sum.Check()
	if err != nil {
		t.Fatalf("failure run should be skipped, got %v", err)
	}
	if checked != 0 {
		t.Fatalf("want 0 checked, got %d", checked)
	}
}

func TestAuditCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		emit func(a *Audit)
	}{
		{"IR violation", func(a *Audit) {
			a.OnOutcome(&OutcomeEvent{TaskID: 1, Bid: 10, Admitted: true, Payment: 15})
		}},
		{"negative payment", func(a *Audit) {
			a.OnOutcome(&OutcomeEvent{TaskID: 1, Bid: 10, Admitted: true, Payment: -1})
		}},
		{"losing bid charged", func(a *Audit) {
			a.OnOutcome(&OutcomeEvent{TaskID: 1, Bid: 10, Reason: schedule.ReasonSurplus, Payment: 3})
		}},
		{"rejection without reason", func(a *Audit) {
			a.OnOutcome(&OutcomeEvent{TaskID: 1, Bid: 10})
		}},
		{"lambda decrease", func(a *Audit) {
			a.OnDual(&DualEvent{LambdaBefore: 2, LambdaAfter: 1, PhiBefore: 0, PhiAfter: 0})
		}},
		{"phi decrease", func(a *Audit) {
			a.OnDual(&DualEvent{PhiBefore: 2, PhiAfter: 1})
		}},
		{"payment terms mismatch", func(a *Audit) {
			a.OnPayment(&PaymentEvent{VendorTerm: 1, ComputeTerm: 1, Total: 5})
		}},
		{"negative payment term", func(a *Audit) {
			a.OnPayment(&PaymentEvent{VendorTerm: -1, Total: -1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAudit()
			tc.emit(a)
			if a.Err() == nil {
				t.Fatalf("%s not caught", tc.name)
			}
		})
	}
}

func TestAuditAcceptsCleanStream(t *testing.T) {
	a := NewAudit()
	a.OnDual(&DualEvent{LambdaBefore: 1, LambdaAfter: 2, PhiBefore: 0.5, PhiAfter: 0.5})
	a.OnPayment(&PaymentEvent{VendorTerm: 1, ComputeTerm: 2, MemoryTerm: 3, Total: 6})
	a.OnOutcome(&OutcomeEvent{TaskID: 1, Bid: 10, Admitted: true, Payment: 9})
	a.OnOutcome(&OutcomeEvent{TaskID: 2, Bid: 10, Reason: schedule.ReasonSurplus})
	if err := a.Err(); err != nil {
		t.Fatalf("clean stream flagged: %v", err)
	}
	if a.count != 0 {
		t.Fatalf("count %d", a.count)
	}
}

func TestMetricsAggregates(t *testing.T) {
	m := NewMetrics()
	m.OnRunStart(&RunStartEvent{Nodes: 2, Slots: 4, CapWork: []int{10, 20}})
	m.OnBid(&BidEvent{})
	m.OnBid(&BidEvent{})
	m.OnOutcome(&OutcomeEvent{Bid: 50, Admitted: true, Payment: 30, VendorCost: 5, EnergyCost: 10,
		Placements: []Placement{{Node: 1, Slot: 0, Work: 20}}})
	m.OnOutcome(&OutcomeEvent{Bid: 20, Reason: schedule.ReasonSurplus})
	m.OnDual(&DualEvent{Slot: 3, LambdaAfter: 2.5, PhiAfter: 0.5})
	m.OnRunEnd(&RunEndEvent{})

	snap := m.Snapshot()
	if snap["offers"].(int64) != 2 || snap["admitted"].(int64) != 1 {
		t.Fatalf("counts wrong: %+v", snap)
	}
	if snap["welfare"].(float64) != 35 || snap["revenue"].(float64) != 30 {
		t.Fatalf("money wrong: %+v", snap)
	}
	util := snap["node_utilization"].([]float64)
	// Node 1: 20 work units over 20 cap × 4 slots.
	if len(util) != 2 || util[1] != 0.25 {
		t.Fatalf("utilization wrong: %v", util)
	}
	if ml := snap["max_lambda"].([]float64); ml[3] != 2.5 {
		t.Fatalf("max lambda wrong: %v", ml)
	}
	// Expose twice must not panic (expvar.Publish would).
	m.Expose("pdftsp_test_metrics")
	m.Expose("pdftsp_test_metrics")
}
