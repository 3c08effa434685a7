package benchsuite

import (
	"encoding/json"
	"io"
	"testing"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/service"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/trace"
)

// The serving benchmarks measure the broker's wire path — the
// intake→decision loop pdftspd-load drives at scale — across batch
// sizes: one bid per submission (batched-1, which is the single-bid
// path) up to slot-coalesced batches, with pooled codecs and binary
// sinks. One op is one served bid for the ServeBid rows, one codec call
// for the codec pairs, and one closed slot for the checkpoint trio.

// servingSlots bounds a serving broker's horizon; a benchmark that
// outlives it rebuilds the broker off the clock.
const servingSlots = 4096

// servingBidsPerSlot is the slot-close round size the ServeBid and
// checkpoint benchmarks use.
const servingBidsPerSlot = 64

// servingStacks wires the serving benchmarks' stack as n shards: four
// hybrid nodes — small enough that a long -benchtime over thousands of
// slots stays in memory — under the template workload (a paper-scale day
// at rate 10, cycled with fresh identities by the benchmarks). Seed -6
// is the marketplace's: config.Market offsets it to vendor.Standard(5, 1),
// which every committed BENCH_*.json row was recorded against.
func servingStacks(b *testing.B, n int) []*config.Built {
	b.Helper()
	tc := trace.DefaultConfig()
	tc.RatePerSlot = 10
	tasks, err := trace.Generate(tc)
	if err != nil {
		b.Fatal(err)
	}
	c := config.Default()
	c.Slots, c.Seed = servingSlots, -6
	if c.Nodes, err = config.Mix("hybrid", 4); err != nil {
		b.Fatal(err)
	}
	stacks, err := c.Wire(tasks, n)
	if err != nil {
		b.Fatal(err)
	}
	return stacks
}

// brokerOptions is the virtual-clock broker every serving row runs on
// one wired stack.
func brokerOptions(st *config.Built) service.Options {
	return service.Options{
		Cluster:         st.Cluster,
		Scheduler:       st.Scheduler,
		Model:           st.Model,
		Market:          st.Market,
		QueueSize:       4 * servingBidsPerSlot,
		VirtualClock:    true,
		RunLabel:        "bench",
		DropLosingPlans: true,
	}
}

// retimeTask gives a template task a fresh identity "bidding now",
// preserving its deadline slack relative to the broker's current slot.
func retimeTask(t task.Task, id, slot int) task.Task {
	deadline := slot + int(t.Deadline) - int(t.Arrival)
	if deadline >= servingSlots {
		deadline = servingSlots - 1
	}
	t.ID = id
	t.Arrival = -1
	t.Deadline = int32(deadline)
	return t
}

// servingBroker builds a virtual-clock broker on the bench cluster.
// Trailing mutators adjust the options for variants (the WAL rows)
// without widening every call site.
func servingBroker(b *testing.B, checkpoint string, fullEvery int, observer obs.Observer, mut ...func(*service.Options)) (*service.Broker, []task.Task) {
	b.Helper()
	st := servingStacks(b, 1)[0]
	bo := brokerOptions(st)
	bo.CheckpointPath = checkpoint
	bo.CheckpointFullEvery = fullEvery
	bo.Observer = observer
	for _, m := range mut {
		m(&bo)
	}
	broker, err := service.New(bo)
	if err != nil {
		b.Fatal(err)
	}
	if err := broker.Start(); err != nil {
		b.Fatal(err)
	}
	return broker, st.Tasks
}

// serveBidBatched is the fast path at a fixed batch size: one pooled
// decode per batch, one SubmitBatchAck per batch, one slot close per
// batch, decisions streamed through the reflection-free encoder by an
// observer on the core goroutine. One op is one served bid, so the
// ns/op across sizes is directly the amortization curve of the batch
// machinery — the single-size variant this replaces could not show
// where coalescing stops paying.
func serveBidBatched(b *testing.B, size int) {
	enc := &encodingObserver{}
	broker, tasks := servingBroker(b, "", 0, enc)
	defer broker.Kill()
	payloads := bidPayloads(b, tasks, size)
	var (
		reqs     []service.BidRequest
		batch    = make([]task.Task, 0, size)
		verdicts = make([]error, size)
		slot     int
		id       = 1 << 20
		batches  int
	)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		if err := service.DecodeBids(payloads[batches%len(payloads)], &reqs); err != nil {
			b.Fatal(err)
		}
		batches++
		k := b.N - n
		if k > len(reqs) {
			k = len(reqs)
		}
		batch = batch[:0]
		for i := 0; i < k; i++ {
			batch = append(batch, retimeTask(reqs[i].Task(), id, slot))
			id++
		}
		if _, err := broker.SubmitBatchAck(nil, batch, verdicts[:k]); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if verdicts[i] != nil {
				b.Fatal(verdicts[i])
			}
		}
		n += k
		slot = stepServing(b, broker, slot, func() {
			broker, tasks = rebuildServing(b, broker, "", 0, enc)
		})
	}
}

// ServeBidBatched1 serves one-bid batches — all batch overhead, no
// amortization; the floor the larger sizes are measured against.
func ServeBidBatched1(b *testing.B) { serveBidBatched(b, 1) }

// ServeBidBatched16 serves 16-bid batches.
func ServeBidBatched16(b *testing.B) { serveBidBatched(b, 16) }

// ServeBidBatched256 serves 256-bid batches — several slots' worth of
// intake coalesced into one request.
func ServeBidBatched256(b *testing.B) { serveBidBatched(b, 256) }

// encodingObserver streams each decision through the pooled wire
// encoder, standing in for a batch responder on the core goroutine.
type encodingObserver struct {
	obs.Base
	buf []byte
}

func (o *encodingObserver) OnOutcome(e *obs.OutcomeEvent) {
	if e.Decision != nil {
		o.buf = service.AppendDecision(o.buf[:0], e.TaskID, e.Decision)
	}
}

// stepServing closes the current slot and rebuilds the broker (off the
// timer) when the horizon is spent.
func stepServing(b *testing.B, broker *service.Broker, slot int, rebuild func()) int {
	b.Helper()
	if _, err := broker.Step(1); err != nil {
		b.Fatal(err)
	}
	slot++
	if slot >= servingSlots-1 {
		b.StopTimer()
		rebuild()
		b.StartTimer()
		return 0
	}
	return slot
}

func rebuildServing(b *testing.B, old *service.Broker, checkpoint string, fullEvery int, observer obs.Observer, mut ...func(*service.Options)) (*service.Broker, []task.Task) {
	b.Helper()
	old.Kill()
	return servingBroker(b, checkpoint, fullEvery, observer, mut...)
}

// bidPayloads renders wire JSON for batches of size k from the bench
// workload — the batch-endpoint request bodies the serving and decode
// benchmarks replay.
func bidPayloads(b *testing.B, tasks []task.Task, k int) [][]byte {
	b.Helper()
	if len(tasks) < k {
		b.Fatalf("bench workload too small: %d tasks, need %d", len(tasks), k)
	}
	var payloads [][]byte
	for at := 0; at+k <= len(tasks) && len(payloads) < 16; at += k {
		reqs := make([]service.BidRequest, k)
		for i := 0; i < k; i++ {
			// No id, no arrival: the broker assigns both.
			reqs[i] = service.BidRequestFor(tasks[at+i])
			reqs[i].ID, reqs[i].Arrival = nil, nil
		}
		data, err := json.Marshal(reqs)
		if err != nil {
			b.Fatal(err)
		}
		payloads = append(payloads, data)
	}
	return payloads
}

// HTTPDecodeBidStdJSON decodes a 64-bid batch body with a fresh
// encoding/json unmarshal per request — the allocation profile of the
// pre-pooling handler.
func HTTPDecodeBidStdJSON(b *testing.B) {
	payloads := servingPayloads(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var reqs []service.BidRequest
		if err := json.Unmarshal(payloads[i%len(payloads)], &reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// HTTPDecodeBidPooled decodes the same bodies through the handler's
// pooled decoder, reusing one request slice.
func HTTPDecodeBidPooled(b *testing.B) {
	payloads := servingPayloads(b)
	var reqs []service.BidRequest
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := service.DecodeBids(payloads[i%len(payloads)], &reqs); err != nil {
			b.Fatal(err)
		}
	}
}

func servingPayloads(b *testing.B) [][]byte {
	b.Helper()
	return bidPayloads(b, servingStacks(b, 1)[0].Tasks, servingBidsPerSlot)
}

// DecisionEncodeStdJSON marshals one decision response via
// encoding/json per op.
func DecisionEncodeStdJSON(b *testing.B) {
	d := benchDecision()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := service.DecisionResponse{
			TaskID: d.TaskID, Admitted: d.Admitted, Payment: d.Payment(),
		}
		if _, err := json.Marshal(&resp); err != nil {
			b.Fatal(err)
		}
	}
}

// DecisionEncodePooled renders the same response through the handler's
// reflection-free encoder into a reused buffer.
func DecisionEncodePooled(b *testing.B) {
	d := benchDecision()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = service.AppendDecision(buf[:0], d.TaskID, &d)
	}
}

func benchDecision() schedule.Decision {
	return schedule.Decision{
		TaskID:   42,
		Admitted: true,
		Terms:    &schedule.Terms{Payment: 37.25},
		F:        3.5,
	}
}

// benchOutcomeEvent is a representative admitted decision with two
// placements — the decision-log hot record — and the decision it carries.
func benchOutcomeEvent() obs.OutcomeEvent {
	return obs.OutcomeEvent{
		Run: "bench", Sched: "pdftsp", TaskID: 42, Slot: 7,
		Bid: 61.5, Admitted: true, Surplus: 24.25, Payment: 37.25,
		VendorCost: 4.5, EnergyCost: 1.75,
		Placements: []obs.Placement{{Node: 1, Slot: 7, Work: 12}, {Node: 1, Slot: 8, Work: 12}},
		Decision: &schedule.Decision{
			TaskID: 42, Admitted: true, F: 24.25, Terms: schedule.NewTerms(37.25, 4.5, 1.75),
			Schedule: &schedule.Schedule{TaskID: 42, Vendor: schedule.NoVendor,
				Placements: []schedule.Placement{{Node: 1, Slot: 7}, {Node: 1, Slot: 8}}},
		},
	}
}

// DecisionLogJSONL streams one outcome through the JSONL observer — the
// per-decision trace sink before the binary log.
func DecisionLogJSONL(b *testing.B) {
	l := obs.NewJSONL(io.Discard)
	ev := benchOutcomeEvent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.TaskID = i
		l.OnOutcome(&ev)
	}
}

// DecisionLogBinary streams the same outcome through the binary
// decision log.
func DecisionLogBinary(b *testing.B) {
	l := obs.NewDecisionLog(io.Discard)
	ev := benchOutcomeEvent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.TaskID, ev.Decision.TaskID, ev.Decision.Schedule.TaskID = i, i, i
		l.OnOutcome(&ev)
	}
}

// checkpointPerSlot measures one slot-close round (64 bids) under a
// checkpoint cadence: none, a full snapshot every slot ("json-full", named
// when it was JSON), or binary per-slot deltas under a distant boundary.
func checkpointPerSlot(b *testing.B, mode string) {
	path := ""
	fullEvery := 0
	switch mode {
	case "none":
	case "json-full":
		path = b.TempDir() + "/bench.ckpt"
		fullEvery = 1
	case "binary-delta":
		path = b.TempDir() + "/bench.ckpt"
		fullEvery = 1 << 30
	}
	broker, tasks := servingBroker(b, path, fullEvery, nil)
	defer broker.Kill()
	batch := make([]task.Task, servingBidsPerSlot)
	verdicts := make([]error, servingBidsPerSlot)
	slot := 0
	id := 1 << 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = retimeTask(tasks[(i*servingBidsPerSlot+j)%len(tasks)], id, slot)
			id++
		}
		if _, err := broker.SubmitBatchAck(nil, batch, verdicts); err != nil {
			b.Fatal(err)
		}
		slot = stepServing(b, broker, slot, func() {
			broker, tasks = rebuildServing(b, broker, path, fullEvery, nil)
		})
	}
}

// CheckpointPerSlotNone is the no-durability control.
func CheckpointPerSlotNone(b *testing.B) { checkpointPerSlot(b, "none") }

// CheckpointPerSlotJSONFull writes the full snapshot at every slot close
// (CheckpointFullEvery 1) — the durability cost without a delta chain.
func CheckpointPerSlotJSONFull(b *testing.B) { checkpointPerSlot(b, "json-full") }

// CheckpointPerSlotBinaryDelta appends one binary delta per slot close.
func CheckpointPerSlotBinaryDelta(b *testing.B) { checkpointPerSlot(b, "binary-delta") }

// SlotCloseSequential measures one full slot close — 64 bids submitted,
// the slot stepped, every decision priced on the core goroutine. One op
// is one closed slot.
func SlotCloseSequential(b *testing.B) {
	broker, tasks := servingBroker(b, "", 0, nil)
	defer broker.Kill()
	batch := make([]task.Task, servingBidsPerSlot)
	verdicts := make([]error, servingBidsPerSlot)
	slot := 0
	id := 1 << 20
	// Warm the cluster to steady state before the timer: early slots have
	// spare capacity everywhere, so admissions are phase-dependent until
	// the frontier fills. Without this the measured window would depend
	// on b.N.
	const warmSlots = 128
	for i := 0; i < warmSlots; i++ {
		for j := range batch {
			batch[j] = retimeTask(tasks[(i*servingBidsPerSlot+j)%len(tasks)], id, slot)
			id++
		}
		if _, err := broker.SubmitBatchAck(nil, batch, verdicts); err != nil {
			b.Fatal(err)
		}
		slot = stepServing(b, broker, slot, func() { b.Fatal("warmup exceeded horizon") })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = retimeTask(tasks[(i*servingBidsPerSlot+j)%len(tasks)], id, slot)
			id++
		}
		if _, err := broker.SubmitBatchAck(nil, batch, verdicts); err != nil {
			b.Fatal(err)
		}
		slot = stepServing(b, broker, slot, func() {
			broker, tasks = rebuildServing(b, broker, "", 0, nil)
		})
	}
}
