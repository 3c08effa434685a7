package benchsuite

import (
	"encoding/json"
	"errors"
	"io"
	"testing"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/service"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/spot"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/zones"
)

// servingStacks wires n shards of four hybrid nodes under a rate-10 day;
// seed -6 makes config.Market's marketplace vendor.Standard(5, 1).
func servingStacks(b *testing.B, n int) []*config.Built {
	tc := trace.DefaultConfig()
	tc.RatePerSlot = 10
	tasks, err := trace.Generate(tc)
	must(b, err)
	c := config.Default()
	c.Slots, c.Seed = servingSlots, -6
	c.Nodes, err = config.Mix("hybrid", 4)
	must(b, err)
	stacks, err := c.Wire(tasks, n)
	must(b, err)
	return stacks
}

// server is a running virtual-clock fleet of n serving brokers, each one's
// options adjusted by mut, and the slot it bids in next.
type server struct {
	service.Auctioneer
	tasks    []task.Task
	n        int
	mut      func(*service.Options)
	slot, id int
	verdicts [256]error // the largest batch a row bids
}

// open starts the fleet, killed (again) when the benchmark function ends.
func (s *server) open(b *testing.B) {
	stacks := servingStacks(b, s.n)
	opts := make([]service.Options, s.n)
	for i, st := range stacks {
		opts[i] = service.Options{Cluster: st.Cluster, Scheduler: st.Scheduler, Model: st.Model, Market: st.Market,
			QueueSize: 4 * servingBidsPerSlot, VirtualClock: true, RunLabel: "bench", DropLosingPlans: true}
		if s.mut != nil {
			s.mut(&opts[i])
		}
	}
	a, err := service.Open(opts...)
	must(b, err)
	must(b, a.Start())
	b.Cleanup(a.Kill)
	s.Auctioneer, s.tasks = a, stacks[0].Tasks
}

// round bids batch's template tasks in the current slot under fresh ids,
// deadline slack kept, and closes the slot.
func (s *server) round(b *testing.B, batch []task.Task) {
	for i := range batch {
		t := &batch[i]
		t.Deadline = int32(min(s.slot+int(t.Deadline)-int(t.Arrival), servingSlots-1))
		t.ID, t.Arrival = s.id, -1
		s.id++
	}
	_, err := s.SubmitBatchAck(nil, batch, s.verdicts[:len(batch)])
	must(b, errors.Join(err, errors.Join(s.verdicts[:len(batch)]...)))
	_, err = s.Step(1)
	must(b, err)
	if s.slot++; s.slot >= servingSlots-1 {
		b.StopTimer()
		s.Kill()
		s.open(b)
		s.slot = 0
		b.StartTimer()
	}
}

// serveBids serves size-bid bodies: a pooled decode, a SubmitBatchAck and
// a slot close each; one broker also encodes each decision for the wire,
// as a batch responder on the core goroutine would.
func serveBids(b *testing.B, size, shards int) {
	s := &server{n: shards, id: 1 << 20}
	if shards == 1 {
		s.mut = func(o *service.Options) { o.Observer = &encodingObserver{} }
	}
	s.open(b)
	payloads := bidPayloads(b, s.tasks, size)
	var reqs []service.BidRequest
	batch := make([]task.Task, 0, size)
	b.ResetTimer()
	for n, i := 0, 0; n < b.N; i++ {
		must(b, service.DecodeBids(payloads[i%len(payloads)], &reqs))
		batch = batch[:0]
		for _, r := range reqs[:min(b.N-n, len(reqs))] {
			batch = append(batch, r.Task())
		}
		s.round(b, batch)
		n += len(batch)
	}
}

type encodingObserver struct {
	obs.Base
	buf []byte
}

func (o *encodingObserver) OnOutcome(e *obs.OutcomeEvent) {
	if e.Decision != nil {
		o.buf = service.AppendDecision(o.buf[:0], e.TaskID, e.Decision)
	}
}

// slotRounds times 64-bid slot-close rounds on one broker after warm
// untimed ones: until the frontier fills, admissions depend on the phase.
func slotRounds(b *testing.B, warm int, mut func(*service.Options)) {
	s := &server{n: 1, mut: mut, id: 1 << 20}
	s.open(b)
	batch := make([]task.Task, servingBidsPerSlot)
	fill := func(i int) []task.Task {
		for j := range batch {
			batch[j] = s.tasks[(i*servingBidsPerSlot+j)%len(s.tasks)]
		}
		return batch
	}
	for i := 0; i < warm; i++ {
		s.round(b, fill(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.round(b, fill(i))
	}
}

// checkpointed checkpoints every slot, in full every fullEvery; walSync > 0
// also journals each bid before its ack, fsyncing every walSync messages.
func checkpointed(b *testing.B, fullEvery, walSync int) {
	path := b.TempDir() + "/bench.ckpt"
	slotRounds(b, 0, func(o *service.Options) {
		o.CheckpointPath, o.CheckpointFullEvery = path, fullEvery
		if walSync > 0 {
			o.WALPath, o.WALSyncEvery = service.WALPath(path), walSync
		}
	})
}

// bidPayloads renders up to 16 batch bodies of k bids without id or
// arrival, which the broker assigns.
func bidPayloads(b *testing.B, tasks []task.Task, k int) [][]byte {
	var payloads [][]byte
	for at := 0; at+k <= len(tasks) && len(payloads) < 16; at += k {
		reqs := make([]service.BidRequest, k)
		for i := range reqs {
			reqs[i] = service.BidRequestFor(tasks[at+i])
			reqs[i].ID, reqs[i].Arrival = nil, nil
		}
		data, err := json.Marshal(reqs)
		must(b, err)
		payloads = append(payloads, data)
	}
	return payloads
}

// decodeBids decodes 64-bid bodies through the handler's pooled decoder.
func decodeBids(b *testing.B) {
	payloads := bidPayloads(b, servingStacks(b, 1)[0].Tasks, servingBidsPerSlot)
	var reqs []service.BidRequest
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(b, service.DecodeBids(payloads[i%len(payloads)], &reqs))
	}
}

// encodeDecision renders a decision through the handler's encoder.
func encodeDecision(b *testing.B) {
	d := schedule.Decision{TaskID: 42, Admitted: true, Terms: &schedule.Terms{Payment: 37.25}, F: 3.5}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = service.AppendDecision(buf[:0], d.TaskID, &d)
	}
}

// decisionLog logs an admitted two-placement decision, the hot record.
func decisionLog(b *testing.B) {
	l := obs.NewDecisionLog(io.Discard)
	ev := obs.OutcomeEvent{Slot: 7, Decision: &schedule.Decision{Admitted: true, F: 24.25, Terms: schedule.NewTerms(37.25, 4.5, 1.75),
		Schedule: &schedule.Schedule{Vendor: schedule.NoVendor, Placements: []schedule.Placement{{Node: 1, Slot: 7}, {Node: 1, Slot: 8}}}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.TaskID, ev.Decision.TaskID, ev.Decision.Schedule.TaskID = i, i, i
		l.OnOutcome(&ev)
	}
}

// shardRoute prices a bid against every shard's dual-price quote and
// picks the placement, the router's work per bid.
func shardRoute(b *testing.B) {
	stacks := servingStacks(b, benchShards)
	quotes := make([]*zones.Quote, benchShards)
	cand := make([]int, benchShards)
	for i, st := range stacks {
		quotes[i] = zones.NewQuote("bench", st.Model, st.Cluster).WithDuals(st.Scheduler.(*core.Scheduler).SnapshotDuals())
		cand[i] = i
	}
	tasks := stacks[0].Tasks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if zones.Place(&tasks[i%len(tasks)], quotes, cand) < 0 {
			b.Fatal("no shard placement")
		}
	}
}

// spotDuals' flat positive λ keeps a provider renting every slot.
type spotDuals struct{}

func (spotDuals) Name() string                                  { return "bench-duals" }
func (spotDuals) Offer(env *schedule.TaskEnv) schedule.Decision { return schedule.Decision{} }
func (spotDuals) Lambda(k, t int) float64                       { return 5 }

// spotTrace is a horizon's price walk on the serving cluster's last node.
func spotTrace(b *testing.B) (*cluster.Cluster, spot.TraceConfig) {
	cl := servingStacks(b, 1)[0].Cluster
	return cl, spot.TraceConfig{Seed: 7, Slots: servingSlots, Nodes: []int{cl.NumNodes() - 1},
		BasePrice: spot.ReferencePrice(cl) * 0.4, ReclaimProb: 0.05}
}

// spotAdvance times the market step sim.Engine runs at each slot close
// (quote, reclaim, release, rent, charge), the budget too large to bind;
// each time the trace is spent, a fresh provider binds a fresh clone of
// the cluster, outside the timer.
func spotAdvance(b *testing.B) {
	base, cfg := spotTrace(b)
	tr, err := spot.GenerateTrace(cfg)
	must(b, err)
	res := sim.NewResult("bench")
	fresh := func() *spot.Provider {
		p, err := spot.New(spot.Options{Trace: tr, Nodes: cfg.Nodes, Budget: 1e12})
		must(b, err)
		cl := base.Clone()
		must(b, p.Bind(cl, sim.NewEmptyFailureTracker(cl)))
		return p
	}
	p := fresh()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % servingSlots
		if s == 0 && i > 0 {
			b.StopTimer()
			p = fresh()
			b.StartTimer()
		}
		p.AdvanceTo(s, spotDuals{}, res)
	}
	if res.SpotLeasedSlots == 0 {
		b.Fatal("provider never rented; the benchmark is vacuous")
	}
}

// spotTraceGen times the seeded price walk a provider boots from.
func spotTraceGen(b *testing.B) {
	_, cfg := spotTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := spot.GenerateTrace(cfg)
		must(b, err)
	}
}
