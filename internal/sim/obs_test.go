package sim

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// TestObserverTraceReproducesResult streams a full pdFTSP run through the
// JSONL observer and checks that the trace alone reproduces the engine's
// accounting, and that the online auditor sees no invariant violations.
func TestObserverTraceReproducesResult(t *testing.T) {
	tasks, tc := smallWorkload(t)
	cl := simCluster(t, 3, tc.Horizon)
	mkt, err := vendor.Standard(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.New(cl, core.CalibrateDuals(tasks, tc.Model, cl, mkt))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	jsonl := obs.NewJSONL(&buf)
	auditor := obs.NewAudit()
	res, err := Run(cl, sched, tasks, Config{
		Model: tc.Model, Market: mkt,
		Observer: obs.Multi(jsonl, auditor),
		RunLabel: "test/small",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := auditor.Err(); err != nil {
		t.Fatalf("audit violations on a clean run: %v", err)
	}

	sum, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Runs) != 1 {
		t.Fatalf("want 1 run in trace, got %d", len(sum.Runs))
	}
	rs := sum.Runs[0]
	if rs.Run != "test/small" || rs.Sched != sched.Name() {
		t.Fatalf("labels: %q/%q", rs.Run, rs.Sched)
	}
	if rs.Offers != len(tasks) {
		t.Fatalf("trace has %d bids, workload has %d tasks", rs.Offers, len(tasks))
	}
	if rs.Admitted != res.Admitted || rs.Rejected != res.Rejected {
		t.Fatalf("trace admits %d/%d, engine %d/%d", rs.Admitted, rs.Rejected, res.Admitted, res.Rejected)
	}
	if diff := rs.Welfare - res.Welfare; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("trace welfare %v != engine %v", rs.Welfare, res.Welfare)
	}
	if diff := rs.Revenue - res.Revenue; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("trace revenue %v != engine %v", rs.Revenue, res.Revenue)
	}
	if checked, err := sum.Check(); err != nil || checked != 1 {
		t.Fatalf("check: %d, %v", checked, err)
	}
	if res.Admitted > 0 && rs.Revenue <= 0 {
		t.Fatal("admitted tasks but no revenue in trace")
	}
}

// crookedScheduler wraps a real scheduler but overcharges every winner,
// breaking individual rationality (Theorem 4). The auditor must notice.
type crookedScheduler struct{ inner Scheduler }

func (c *crookedScheduler) Name() string { return "crooked" }

func (c *crookedScheduler) Offer(env *schedule.TaskEnv) schedule.Decision {
	d := c.inner.Offer(env)
	if d.Admitted {
		d.Terms = &schedule.Terms{Payment: env.Task.Bid + 5}
	}
	return d
}

func TestAuditCatchesCrookedScheduler(t *testing.T) {
	tasks, tc := smallWorkload(t)
	cl := simCluster(t, 3, tc.Horizon)
	mkt, err := vendor.Standard(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := core.New(cl, core.CalibrateDuals(tasks, tc.Model, cl, mkt))
	if err != nil {
		t.Fatal(err)
	}
	auditor := obs.NewAudit()
	res, err := Run(cl, &crookedScheduler{inner: inner}, tasks, Config{
		Model: tc.Model, Market: mkt, Observer: auditor,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 {
		t.Fatal("crooked scheduler admitted nothing; test exercises nothing")
	}
	aerr := auditor.Err()
	if aerr == nil {
		t.Fatal("auditor missed payment > bid on every admitted task")
	}
	var count int
	if _, err := fmt.Sscanf(aerr.Error(), "obs: %d invariant", &count); err != nil || count < res.Admitted {
		t.Fatalf("auditor counted %d violations (%v) for %d overcharged winners", count, err, res.Admitted)
	}
}
