package benchsuite

import (
	"testing"

	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/service"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/zones"
)

// The shard benchmarks cover the router added for multi-broker
// scale-out: ShardRoute is the pure placement decision (price every
// shard's published quote, pick the best surplus), and ServeBid/sharded
// is the full wire loop of ServeBid/batched with a four-shard fleet
// behind the router instead of one broker.

// benchShards single-node shards of the serving stack, each with its own
// marketplace and calibrated scheduler — the same recipe as
// cmd/pdftspd -shards.
const benchShards = 4

// ShardRoute measures one routing decision: price a bid against every
// shard's published dual-price quote and pick the placement — the
// front-end work the router adds per bid before any broker sees it.
func ShardRoute(b *testing.B) {
	stacks := servingStacks(b, benchShards)
	tasks := stacks[0].Tasks
	quotes := make([]*zones.Quote, benchShards)
	cand := make([]int, benchShards)
	for i, st := range stacks {
		quotes[i] = zones.NewQuote("bench", st.Model, st.Cluster).WithDuals(st.Scheduler.(*core.Scheduler).SnapshotDuals())
		cand[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &tasks[i%len(tasks)]
		if zones.Place(t, quotes, cand) < 0 {
			b.Fatal("no shard placement")
		}
	}
}

// servingFleet builds a virtual-clock four-shard fleet on the bench
// cluster layout.
func servingFleet(b *testing.B) (service.Auctioneer, []task.Task) {
	b.Helper()
	stacks := servingStacks(b, benchShards)
	opts := make([]service.Options, benchShards)
	for i, st := range stacks {
		opts[i] = brokerOptions(st)
	}
	fleet, err := service.Open(opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := fleet.Start(); err != nil {
		b.Fatal(err)
	}
	return fleet, stacks[0].Tasks
}

// ServeBidSharded is ServeBid/batched through the four-shard fleet:
// pooled decode, routed SubmitBatchAck fan-out, per-shard slot close.
// One op is one served bid; the delta to ServeBid/batched is the
// routing plus fan-out overhead per bid.
func ServeBidSharded(b *testing.B) {
	fleet, tasks := servingFleet(b)
	defer fleet.Kill()
	payloads := bidPayloads(b, tasks, servingBidsPerSlot)
	var (
		reqs     []service.BidRequest
		batch    = make([]task.Task, 0, servingBidsPerSlot)
		verdicts = make([]error, servingBidsPerSlot)
		slot     int
		id       = 1 << 20
	)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		if err := service.DecodeBids(payloads[(n/servingBidsPerSlot)%len(payloads)], &reqs); err != nil {
			b.Fatal(err)
		}
		k := b.N - n
		if k > len(reqs) {
			k = len(reqs)
		}
		batch = batch[:0]
		for i := 0; i < k; i++ {
			batch = append(batch, retimeTask(reqs[i].Task(), id, slot))
			id++
		}
		if _, err := fleet.SubmitBatchAck(nil, batch, verdicts[:k]); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if verdicts[i] != nil {
				b.Fatal(verdicts[i])
			}
		}
		n += k
		if _, err := fleet.Step(1); err != nil {
			b.Fatal(err)
		}
		slot++
		if slot >= servingSlots-1 {
			b.StopTimer()
			fleet.Kill()
			fleet, tasks = servingFleet(b)
			b.StartTimer()
			slot = 0
		}
	}
}
