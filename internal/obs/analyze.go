package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/pdftsp/pdftsp/internal/schedule"
)

// RunSummary is the per-(run, scheduler) view a trace analyzer rebuilds
// from the event stream alone.
type RunSummary struct {
	Run   string
	Sched string

	Offers   int
	Admitted int
	Rejected int
	Reasons  map[schedule.RejectReason]int

	// Recomputed accounting, from Outcome events only: welfare is
	// Σ (bid − vendor − energy) over admitted bids, revenue Σ payment.
	Welfare     float64
	Revenue     float64
	VendorSpend float64
	EnergySpend float64

	// CapacityRejects counts Lemma-1 "almost-feasible" rejections: bids
	// that lost on capacity after their duals already moved.
	CapacityRejects int
	DualsMovedOnly  int // of those, how many recorded DualsUpdated

	// WelfareCurve and RevenueCurve are the cumulative values after each
	// outcome, in stream order.
	WelfareCurve []float64
	RevenueCurve []float64

	// SlotWork[k][t] is the committed work per cell, rebuilt from
	// admitted placements; CapWork/Slots come from the RunStart event.
	SlotWork [][]int
	CapWork  []int
	Slots    int

	// Failure-injection tallies rebuilt from Failure events: applied
	// outages, plans broken/recovered/refunded, and refunded bid value.
	Failures         int
	FailureBroken    int
	FailureRecovered int
	FailureRefunded  int
	RefundedValue    float64

	// Reported is the run's own RunEnd record, nil if the trace was cut
	// short.
	Reported *RunEndEvent
}

// Summary is a parsed trace file.
type Summary struct {
	Events int64
	Runs   []*RunSummary
}

func (s *RunSummary) ensureCell(node, slot int) {
	for len(s.SlotWork) <= node {
		s.SlotWork = append(s.SlotWork, nil)
	}
	for len(s.SlotWork[node]) <= slot {
		s.SlotWork[node] = append(s.SlotWork[node], 0)
	}
}

// ReadTrace parses a JSONL trace stream into per-run summaries, sorted by
// (run, scheduler). Unknown event kinds are skipped so the format can
// grow; malformed lines are errors.
func ReadTrace(r io.Reader) (*Summary, error) {
	sum := &Summary{}
	runs := make(map[string]*RunSummary)
	get := func(run, sched string) *RunSummary {
		key := run + "\x00" + sched
		rs := runs[key]
		if rs == nil {
			rs = &RunSummary{Run: run, Sched: sched, Reasons: make(map[schedule.RejectReason]int)}
			runs[key] = rs
		}
		return rs
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec struct {
			Ev   string          `json:"ev"`
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		sum.Events++
		switch rec.Ev {
		case KindRunStart:
			var e RunStartEvent
			if err := json.Unmarshal(rec.Data, &e); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			rs := get(e.Run, e.Sched)
			rs.Slots = e.Slots
			rs.CapWork = e.CapWork
		case KindBid:
			var e BidEvent
			if err := json.Unmarshal(rec.Data, &e); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			get(e.Run, e.Sched).Offers++
		case KindOutcome:
			var e OutcomeEvent
			if err := json.Unmarshal(rec.Data, &e); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			rs := get(e.Run, e.Sched)
			if e.Admitted {
				rs.Admitted++
				rs.Welfare += e.Bid - e.VendorCost - e.EnergyCost
				rs.Revenue += e.Payment
				rs.VendorSpend += e.VendorCost
				rs.EnergySpend += e.EnergyCost
				for _, p := range e.Placements {
					rs.ensureCell(p.Node, p.Slot)
					rs.SlotWork[p.Node][p.Slot] += p.Work
				}
			} else {
				rs.Rejected++
				rs.Reasons[e.Reason]++ // the zero code prints as "unknown"
				if e.Reason == schedule.ReasonCapacity {
					rs.CapacityRejects++
					if e.DualsUpdated {
						rs.DualsMovedOnly++
					}
				}
			}
			rs.WelfareCurve = append(rs.WelfareCurve, rs.Welfare)
			rs.RevenueCurve = append(rs.RevenueCurve, rs.Revenue)
		case KindFailure:
			var e FailureEvent
			if err := json.Unmarshal(rec.Data, &e); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			rs := get(e.Run, e.Sched)
			rs.Failures++
			rs.FailureBroken += e.Broken
			rs.FailureRecovered += e.Recovered
			rs.FailureRefunded += e.Refunded
			rs.RefundedValue += e.RefundedValue
		case KindRunEnd:
			var e RunEndEvent
			if err := json.Unmarshal(rec.Data, &e); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			rs := get(e.Run, e.Sched)
			cp := e
			rs.Reported = &cp
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	for _, rs := range runs {
		sum.Runs = append(sum.Runs, rs)
	}
	sort.Slice(sum.Runs, func(i, j int) bool {
		if sum.Runs[i].Run != sum.Runs[j].Run {
			return sum.Runs[i].Run < sum.Runs[j].Run
		}
		return sum.Runs[i].Sched < sum.Runs[j].Sched
	})
	return sum, nil
}

// Check verifies each run's recomputed accounting against its own RunEnd
// record: welfare, revenue, and admit/reject counts must match exactly
// (within float tolerance). Runs with injected failures are skipped —
// refunds after node failures adjust the reported welfare in ways the
// per-decision stream cannot see. It returns the number of runs checked
// and the first mismatch, if any.
func (s *Summary) Check() (int, error) {
	checked := 0
	for _, rs := range s.Runs {
		rep := rs.Reported
		if rep == nil || rep.Failures > 0 {
			continue
		}
		checked++
		if rs.Admitted != rep.Admitted {
			return checked, fmt.Errorf("%s/%s: trace admits %d, run reports %d",
				rs.Run, rs.Sched, rs.Admitted, rep.Admitted)
		}
		if rs.Rejected != rep.Rejected {
			return checked, fmt.Errorf("%s/%s: trace rejects %d, run reports %d",
				rs.Run, rs.Sched, rs.Rejected, rep.Rejected)
		}
		if math.Abs(rs.Welfare-rep.Welfare) > 1e-6 {
			return checked, fmt.Errorf("%s/%s: trace welfare %.9g, run reports %.9g",
				rs.Run, rs.Sched, rs.Welfare, rep.Welfare)
		}
		if math.Abs(rs.Revenue-rep.Revenue) > 1e-6 {
			return checked, fmt.Errorf("%s/%s: trace revenue %.9g, run reports %.9g",
				rs.Run, rs.Sched, rs.Revenue, rep.Revenue)
		}
	}
	return checked, nil
}

// curvePoints samples a cumulative curve at up to n evenly spaced
// checkpoints (always including the final value).
func curvePoints(curve []float64, n int) []float64 {
	if len(curve) == 0 || n <= 0 {
		return nil
	}
	if len(curve) <= n {
		return append([]float64(nil), curve...)
	}
	out := make([]float64, 0, n)
	for i := 1; i <= n; i++ {
		idx := i*len(curve)/n - 1
		out = append(out, curve[idx])
	}
	return out
}

// heatCell renders one utilization fraction as a compact glyph scale.
func heatCell(u float64) string {
	switch {
	case u <= 0:
		return "  ."
	case u < 0.25:
		return "  ░"
	case u < 0.5:
		return "  ▒"
	case u < 0.75:
		return "  ▓"
	default:
		return "  █"
	}
}

// WriteText writes a human-readable report: per-run accounting, the
// rejection-reason histogram, sampled welfare/revenue curves, and a
// node × time utilization heat table.
func (s *Summary) WriteText(w io.Writer) {
	fmt.Fprintf(w, "trace: %d events, %d run(s)\n", s.Events, len(s.Runs))
	for _, rs := range s.Runs {
		fmt.Fprintf(w, "\n=== %s / %s ===\n", rs.Run, rs.Sched)
		fmt.Fprintf(w, "offers %d  admitted %d  rejected %d\n", rs.Offers, rs.Admitted, rs.Rejected)
		fmt.Fprintf(w, "welfare %.4f  revenue %.4f  vendor %.4f  energy %.4f\n",
			rs.Welfare, rs.Revenue, rs.VendorSpend, rs.EnergySpend)
		if rep := rs.Reported; rep != nil {
			fmt.Fprintf(w, "reported: welfare %.4f  revenue %.4f  utilization %.4f",
				rep.Welfare, rep.Revenue, rep.Utilization)
			if rep.Failures > 0 {
				fmt.Fprintf(w, "  failures %d", rep.Failures)
			}
			fmt.Fprintln(w)
		}
		if len(rs.Reasons) > 0 {
			fmt.Fprintln(w, "rejections:")
			reasons := make([]schedule.RejectReason, 0, len(rs.Reasons))
			for r := range rs.Reasons {
				reasons = append(reasons, r)
			}
			slices.Sort(reasons) // code order is name order
			for _, r := range reasons {
				name := r.String()
				if r == 0 {
					name = "unknown"
				}
				n := rs.Reasons[r]
				bar := strings.Repeat("#", scaleBar(n, rs.Rejected, 40))
				fmt.Fprintf(w, "  %-12s %6d %s\n", name, n, bar)
			}
			if rs.CapacityRejects > 0 {
				fmt.Fprintf(w, "  capacity rejections with dual movement (Lemma 1): %d/%d\n",
					rs.DualsMovedOnly, rs.CapacityRejects)
			}
		}
		if pts := curvePoints(rs.WelfareCurve, 10); len(pts) > 0 {
			fmt.Fprintf(w, "welfare curve: %s\n", fmtCurve(pts))
			fmt.Fprintf(w, "revenue curve: %s\n", fmtCurve(curvePoints(rs.RevenueCurve, 10)))
		}
		writeHeat(w, rs)
	}
}

func scaleBar(n, total, width int) int {
	if total <= 0 || n <= 0 {
		return 0
	}
	b := n * width / total
	if b == 0 {
		b = 1
	}
	return b
}

func fmtCurve(pts []float64) string {
	parts := make([]string, len(pts))
	for i, p := range pts {
		parts[i] = fmt.Sprintf("%.1f", p)
	}
	return strings.Join(parts, " → ")
}

// writeHeat prints the node × time utilization heat table, bucketing the
// horizon into at most 12 columns.
func writeHeat(w io.Writer, rs *RunSummary) {
	if len(rs.SlotWork) == 0 || rs.Slots == 0 || len(rs.CapWork) == 0 {
		return
	}
	buckets := rs.Slots
	if buckets > 12 {
		buckets = 12
	}
	fmt.Fprintf(w, "utilization heat (%d nodes × %d buckets of %d slots):\n",
		len(rs.SlotWork), buckets, (rs.Slots+buckets-1)/buckets)
	for k := range rs.SlotWork {
		if k >= len(rs.CapWork) || rs.CapWork[k] <= 0 {
			continue
		}
		row := make([]string, 0, buckets)
		vals := make([]string, 0, buckets)
		for b := 0; b < buckets; b++ {
			lo := b * rs.Slots / buckets
			hi := (b + 1) * rs.Slots / buckets
			work, cap := 0, 0
			for t := lo; t < hi; t++ {
				if t < len(rs.SlotWork[k]) {
					work += rs.SlotWork[k][t]
				}
				cap += rs.CapWork[k]
			}
			u := 0.0
			if cap > 0 {
				u = float64(work) / float64(cap)
			}
			row = append(row, heatCell(u))
			vals = append(vals, fmt.Sprintf("%3.0f%%", u*100))
		}
		fmt.Fprintf(w, "  node %2d %s   %s\n", k, strings.Join(row, ""), strings.Join(vals, " "))
	}
}
