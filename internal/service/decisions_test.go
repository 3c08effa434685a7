package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/pdftsp/pdftsp/internal/decision"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
)

// TestRecordSizes pins what one bid costs at rest: the task a workload and
// a held bid carry, and the decision a collecting run keeps (the record
// the broker files it as is pinned in internal/decision). A field added
// or widened without thought shows here before it shows as megabytes in
// the benchmark's live_heap_mb.
func TestRecordSizes(t *testing.T) {
	for _, r := range []struct {
		name      string
		got, want uintptr
	}{
		{"task.Task", unsafe.Sizeof(task.Task{}), 40},
		{"schedule.Decision", unsafe.Sizeof(schedule.Decision{}), 40},
		{"heldBid", unsafe.Sizeof(heldBid{}), 72},
	} {
		if r.got != r.want {
			t.Errorf("%s is %d bytes, want %d", r.name, r.got, r.want)
		}
	}
}

// randomDecision draws from every shape the store distinguishes: plain
// rejections, F = −Inf, a retained losing plan, TaskID ≠ id, and
// admissions with money and a plan — and one it refuses, a reason code
// outside schedule.RejectReason's set (see putRandom).
func randomDecision(rng *rand.Rand, id int) schedule.Decision {
	plan := func() *schedule.Schedule {
		s := &schedule.Schedule{TaskID: id, Vendor: rng.Intn(4) - 1, VendorPrice: rng.Float64(), VendorDelay: rng.Intn(3)}
		for n, slot := rng.Intn(4), 0; n > 0; n-- {
			slot += 1 + rng.Intn(3)
			s.Placements = append(s.Placements, schedule.Placement{Node: rng.Intn(8), Slot: slot})
		}
		return s
	}
	d := schedule.Decision{TaskID: id, F: -rng.Float64(), Reason: schedule.ReasonSurplus}
	switch rng.Intn(8) {
	case 0:
		d.F, d.Reason = math.Inf(-1), schedule.ReasonNoSchedule
	case 1:
		d.Reason = schedule.ReasonSurplus + 1 + schedule.RejectReason(rng.Intn(250))
	case 2:
		d.Schedule = plan() // DropLosingPlans off
	case 3:
		d.TaskID = id + 1 + rng.Intn(5)
	case 4:
		d.Reason, d.DualsUpdated, d.F = schedule.ReasonCapacity, true, rng.Float64()
	case 5, 6:
		d = schedule.Decision{
			TaskID: id, Admitted: true, Schedule: plan(), DualsUpdated: true, F: rng.Float64() * 10,
			Terms: &schedule.Terms{Payment: rng.Float64() * 5, VendorCost: rng.Float64(), EnergyCost: rng.Float64()},
		}
	}
	return d
}

// putRandom puts a randomDecision under id and returns what the store
// holds. A draw with an unknown reason must be refused with the store
// untouched; the same decision with a known reason then goes in.
func putRandom(t *testing.T, s *decision.Store, rng *rand.Rand, id int) schedule.Decision {
	t.Helper()
	d := randomDecision(rng, id)
	if !d.Reason.Valid() {
		n, had := s.Len(), s.Has(id)
		if err := s.Put(id, &d); err == nil || s.Len() != n || s.Has(id) != had {
			t.Fatalf("put(%d) with reason code %d: err %v, %d decisions (had %d)", id, d.Reason, err, s.Len(), n)
		}
		d.Reason = schedule.ReasonSurplus
	}
	if err := s.Put(id, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// requireStoreEquals holds s to the reference map and decision order —
// field for field, not through the record encoding under test — and the
// records s writes (stored plans copied, not re-encoded) to
// decision.Append of the decisions it materialises, byte for byte.
func requireStoreEquals(t *testing.T, label string, s *decision.Store, ref map[int]schedule.Decision, order []int) {
	t.Helper()
	if s.Len() != len(order) {
		t.Fatalf("%s: %d decisions, want %d", label, s.Len(), len(order))
	}
	// The records come back in decision order, so the bytes below also
	// hold every position to order.
	var enc []byte
	for _, id := range order {
		d, _ := s.Get(id)
		if want := ref[id]; !reflect.DeepEqual(d, want) {
			t.Fatalf("%s: id %d: %+v (plan %+v, terms %+v), want %+v (plan %+v, terms %+v)",
				label, id, d, d.Schedule, d.Terms, want, want.Schedule, want.Terms)
		}
		enc = decision.Append(enc, id, &d)
	}
	if got := s.AppendFrom(nil, 0); !bytes.Equal(got, enc) {
		t.Fatalf("%s: the store's records differ from decision.Append's:\n%x\n%x", label, got, enc)
	}
	for id := range ref {
		got, ok := s.Get(id)
		want := ref[id]
		if !ok || !s.Has(id) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Get(%d) = %+v, %v; want %+v", label, id, got, ok, want)
		}
	}
}

// TestDecisionStoreMatchesMap drives random put / refund / get / has
// interleavings on a broker's decided set against a reference map,
// persisting at random points either as a full snapshot (the snapshot
// file's bytes, parsed back) or as a delta (the records the chain lacks,
// read into a replica as a sidecar replay does), and requires the replica
// built from full + N deltas to equal the reference, in decision order.
func TestDecisionStoreMatchesMap(t *testing.T) {
	// The last three are what a multiplicative hash could take badly:
	// IDs that differ only above bit 20, runs of consecutive IDs at
	// scattered bases, and IDs counting down from the largest allowed.
	for _, ids := range []string{"sequential", "sparse", "assigned", "strided", "runs", "top"} {
		t.Run(ids, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(ids))))
			b := &Broker{decisions: new(decision.Store)}
			s, replica := b.decisions, new(decision.Store)
			ref := map[int]schedule.Decision{}
			var order []int
			nextID := 0 // the broker's assignment: one past the largest seen
			runLeft, runAt := 0, 0
			newID := func() int {
				id := nextID
				switch {
				case ids == "sparse", ids == "assigned" && rng.Intn(3) == 0:
					for id = int(rng.Int63()) - rng.Intn(2)*math.MaxInt32; ref[id].TaskID != 0 || s.Has(id); {
						id++
					}
				case ids == "strided":
					id = len(order) << 20
				case ids == "runs":
					if runLeft == 0 {
						runLeft, runAt = 1+rng.Intn(64), rng.Intn(1<<40)<<10
					}
					runLeft--
					id, runAt = runAt, runAt+1
				case ids == "top":
					id = maxBidID - len(order)
				}
				if id >= nextID && id < math.MaxInt64 {
					nextID = id + 1
				}
				return id
			}
			put := func() int {
				id := newID()
				ref[id] = putRandom(t, s, rng, id)
				order = append(order, id)
				return id
			}
			flip := func(ref map[int]schedule.Decision, id int) {
				d := ref[id]
				d.Admitted, d.Reason = false, schedule.ReasonFailedNode
				ref[id] = d
			}
			refund := func(id int) {
				b.refundDecision(id)
				flip(ref, id)
			}
			persist := func(full bool) {
				if full {
					data, _ := encodeSnapshot(&Checkpoint{Version: checkpointVersion, Decisions: s})
					ck, err := readSnapshot(data)
					if err != nil {
						t.Fatal(err)
					}
					replica = ck.Decisions
				} else {
					rec, _ := appendRecord(nil, &Checkpoint{Decisions: s}, &deltaShadows{}, b.saved, b.flips)
					if err := applyDeltaRecord(&Checkpoint{Result: new(sim.Result), Decisions: replica}, rec); err != nil {
						t.Fatalf("delta record: %v", err)
					}
				}
				b.markSaved()
				requireStoreEquals(t, "replica", replica, ref, order)
			}

			persist(true) // an empty store round-trips too
			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(20); {
				case op < 12 || len(order) == 0:
					put()
				case op < 14:
					refund(order[rng.Intn(len(order))]) // any age: saved or not
				case op == 14:
					refund(put()) // decided and flipped within one interval
				case op < 18:
					id := order[rng.Intn(len(order))]
					if rng.Intn(2) == 0 {
						id = int(rng.Int63()) // almost surely unseen
					}
					got, ok := s.Get(id)
					want, wantOK := ref[id]
					if ok != wantOK || s.Has(id) != wantOK || !reflect.DeepEqual(got, want) {
						t.Fatalf("Get(%d) = %+v, %v; want %+v, %v", id, got, ok, want, wantOK)
					}
				default:
					persist(rng.Intn(8) == 0)
				}
			}
			persist(false)
			requireStoreEquals(t, "live store", s, ref, order)

			// A restored broker resumes from a clone, which shares nothing
			// with the store it was taken from: each side moves on with
			// puts and refunds of its own and still answers for itself.
			c := s.Clone()
			cloneRef, cloneOrder := maps.Clone(ref), slices.Clone(order)
			for n := len(order); n > 0; n-- {
				put()
			}
			refund(order[0])
			requireStoreEquals(t, "clone, after its original moved on", c, cloneRef, cloneOrder)
			for n := len(cloneOrder); n > 0; n-- {
				id := -1 - n // no kind draws a negative ID
				cloneRef[id], cloneOrder = putRandom(t, c, rng, id), append(cloneOrder, id)
			}
			c.Refund(cloneOrder[1])
			flip(cloneRef, cloneOrder[1])
			requireStoreEquals(t, "clone, after moving on itself", c, cloneRef, cloneOrder)
			persist(false)
			requireStoreEquals(t, "live store, after its clone moved on", s, ref, order)

			// The same through the real file pair.
			path := filepath.Join(t.TempDir(), "ck.json")
			if err := WriteCheckpoint(path, &Checkpoint{Version: checkpointVersion, Decisions: s}); err != nil {
				t.Fatal(err)
			}
			ck, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			requireStoreEquals(t, "LoadCheckpoint", ck.Decisions, ref, order)
		})
	}
}

// fixedPlans answers every bid alike: admitted with a fresh 10-placement
// plan, or rejected for surplus.
type fixedPlans struct{ reject bool }

func (fixedPlans) Name() string { return "fixed-plans" }

func (f fixedPlans) Offer(env *schedule.TaskEnv) schedule.Decision {
	if f.reject {
		return schedule.Decision{TaskID: env.Task.ID, F: -1, Reason: schedule.ReasonSurplus}
	}
	plan := &schedule.Schedule{TaskID: env.Task.ID, Vendor: schedule.NoVendor, Placements: make([]schedule.Placement, 10)}
	for k := range plan.Placements {
		plan.Placements[k] = schedule.Placement{Node: k % env.Cluster.NumNodes(), Slot: k}
	}
	return schedule.Decision{TaskID: env.Task.ID, Admitted: true, Schedule: plan, Terms: &schedule.Terms{Payment: 1, EnergyCost: 1}, F: 1}
}

// TestStatusDecisionBytes: /v1/status reports what the decided set
// retains, and that is under 160 B per admitted bid with a 10-placement
// plan and under 34 B per rejected bid, append slack included.
func TestStatusDecisionBytes(t *testing.T) {
	const slots, perSlot = 10, 1000
	for _, c := range []struct {
		name   string
		sched  fixedPlans
		budget float64
	}{{"admitted", fixedPlans{}, 160}, {"rejected", fixedPlans{reject: true}, 34}} {
		s := newStack(t, slots+10, 4, 1, 5)
		opts := s.brokerOptions()
		opts.Scheduler, opts.QueueSize = c.sched, perSlot
		b := startBroker(t, opts)
		if st, err := b.Status(); err != nil || st.DecisionBytes != 0 {
			t.Fatalf("%s: an idle broker retains %d decision bytes (err %v)", c.name, st.DecisionBytes, err)
		}
		batch := make([]task.Task, perSlot)
		verdicts := make([]error, perSlot)
		for slot := 0; slot < slots; slot++ {
			for i := range batch {
				batch[i] = task.Task{ID: -1, Arrival: -1, Deadline: int32(slot + 10), Work: 5, MemGB: 2, Batch: 8, Bid: 5}
			}
			if held, err := b.SubmitBatchAck(context.Background(), batch, verdicts); err != nil || held != perSlot {
				t.Fatalf("%s: slot %d: held %d of %d, err %v", c.name, slot, held, perSlot, err)
			}
			if _, err := b.Step(1); err != nil {
				t.Fatal(err)
			}
		}
		st, err := b.Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.Decided != slots*perSlot || st.DecisionBytes != b.decisions.Size() {
			t.Fatalf("%s: status reports %d decided, %d bytes; the store holds %d, %d bytes",
				c.name, st.Decided, st.DecisionBytes, b.decisions.Len(), b.decisions.Size())
		}
		if got := float64(st.DecisionBytes) / float64(st.Decided); got >= c.budget {
			t.Errorf("%s: %.1f decision bytes a bid, budget %.0f", c.name, got, c.budget)
		} else {
			t.Logf("%s: %.1f decision bytes a bid", c.name, got)
		}
		if err := b.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNoPersistenceTracksNothing: a broker with no CheckpointPath never
// writes, so what it remembers about unwritten changes must not grow with
// the bids it serves — and neither may the latency samples, which are
// sim.Run's to collect.
func TestNoPersistenceTracksNothing(t *testing.T) {
	const slots, perSlot = 30, 1000
	s := newStack(t, slots, 2, 2, 5)
	opts := s.brokerOptions()
	opts.QueueSize = perSlot
	opts.DropLosingPlans = true
	b := startBroker(t, opts, sim.Failure{Node: 0, From: 4, To: slots}, sim.Failure{Node: 1, From: 9, To: slots})
	batch := make([]task.Task, perSlot)
	verdicts := make([]error, perSlot)
	for slot := 0; slot < slots; slot++ {
		for i := range batch {
			batch[i] = task.Task{ID: -1, Arrival: -1, Deadline: int32(min(slot+3, slots-1)), Work: 5, MemGB: 2, Batch: 8, Bid: 5}
		}
		if held, err := b.SubmitBatchAck(context.Background(), batch, verdicts); err != nil || held != perSlot {
			t.Fatalf("slot %d: held %d of %d, err %v", slot, held, perSlot, err)
		}
		if _, err := b.Step(1); err != nil {
			t.Fatal(err)
		}
		if (slot+1)%10 == 0 {
			if err := b.do(func() {
				if b.saved != 0 || cap(b.flips) != 0 {
					t.Errorf("after %d bids: saved mark %d, %d flips tracked", b.decisions.Len(), b.saved, cap(b.flips))
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	res := b.Result()
	if res.Admitted+res.Rejected != slots*perSlot || b.decisions.Len() != slots*perSlot {
		t.Fatalf("decided %d+%d, stored %d, want %d", res.Admitted, res.Rejected, b.decisions.Len(), slots*perSlot)
	}
	if res.FailedTasks == 0 {
		t.Fatal("no refund flipped a decision; the flip half of the test is vacuous")
	}
	if res.OfferLatency != nil {
		t.Fatalf("broker Result holds %d latency samples", res.OfferLatency.Count())
	}
}

// checkpointSeeds serves a small workload under a delta cadence and
// returns what its files hold: the full snapshot's bytes (whose CRC keys
// the sidecar) and what they decode to, and the sidecar's header and
// record frames.
func checkpointSeeds(t testing.TB) (ck *Checkpoint, snapshot, header []byte, frames [][]byte) {
	path := filepath.Join(t.TempDir(), "ck.json")
	deltaStack(t, path, 4, 24, 11, 23)
	ck, snapshot, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	side, err := os.ReadFile(DeltaPath(path))
	if err != nil {
		t.Fatal(err)
	}
	r := &decision.Reader{B: side[len(deltaMagic):]}
	r.U64()       // version
	r.B = r.B[4:] // base CRC
	r.Int()       // base slot
	r.Str()       // run label
	header = side[:len(side)-len(r.B)]
	for len(r.B) > 0 {
		before := r.B
		if decision.FrameNext(r) == nil {
			t.Fatal("sidecar has a bad frame")
		}
		frames = append(frames, before[:len(before)-len(r.B)])
	}
	if r.Err != nil || len(frames) < 2 {
		t.Fatalf("%d delta frames (err %v), want at least 2", len(frames), r.Err)
	}
	return ck, snapshot, header, frames
}

// FuzzCheckpointDecisions feeds arbitrary bytes to the decoders that read
// a checkpoint from outside the process: a whole snapshot file, one
// record folded into a snapshot, and a sidecar whose valid records are
// followed by the bytes. None may panic or allocate for a count the bytes
// only claim; a snapshot that decodes re-encodes to its own bytes, and
// the valid prefix of a sidecar must still restore. The seed corpus under
// testdata/ was cut from a chaos-harness run's checkpoint files (a JSON
// snapshot's decision section, and a delta record); the seeds added here
// track the current format.
func FuzzCheckpointDecisions(f *testing.F) {
	base, snapshot, header, frames := checkpointSeeds(f)
	f.Add(snapshot)
	for _, fr := range frames {
		f.Add(fr)
		_, w := binary.Uvarint(fr)
		f.Add(fr[w+4:]) // the record inside the frame
	}
	rng, s := rand.New(rand.NewSource(1)), new(decision.Store)
	for id := range 12 {
		if d := randomDecision(rng, id); d.Reason.Valid() {
			if err := s.Put(id, &d); err != nil {
				f.Fatal(err)
			}
		}
	}
	small, _ := encodeSnapshot(&Checkpoint{Version: checkpointVersion, Decisions: s})
	f.Add(small)
	fresh := func(t testing.TB) *Checkpoint {
		ck, err := readSnapshot(snapshot)
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}
	baseCRC := crc32.ChecksumIEEE(snapshot)
	prefix := append(append([]byte(nil), header...), frames[0]...)
	want := fresh(f)
	if err := replayDeltas(want, prefix, baseCRC); err != nil || want.Slot != base.Slot+1 {
		f.Fatalf("valid prefix: slot %d, err %v", want.Slot, err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ck, err := readSnapshot(data)
		runtime.ReadMemStats(&m1)
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<16+64*uint64(len(data)) {
			t.Fatalf("decoding a %d-byte snapshot allocated %d bytes", len(data), grew)
		}
		if err == nil {
			if got, _ := encodeSnapshot(ck); !bytes.Equal(got, data) {
				t.Fatalf("the snapshot decodes, then encodes to other bytes:\n%x\n%x", got, data)
			}
		}
		_ = applyDeltaRecord(fresh(t), data)

		ck = fresh(t)
		if err := replayDeltas(ck, append(prefix[:len(prefix):len(prefix)], data...), baseCRC); err != nil {
			return // a frame that checks out but does not decode is surfaced
		}
		if ck.Slot < want.Slot || ck.Decisions.Len() < want.Decisions.Len() {
			t.Fatalf("valid prefix lost: slot %d with %d decisions, want at least slot %d with %d",
				ck.Slot, ck.Decisions.Len(), want.Slot, want.Decisions.Len())
		}
	})
}

// TestDeltaDecodeIgnoresClaimedCounts: a count is a claim until the bytes
// behind it decode, so a record claiming 2^40 of anything must fail
// without allocating for them.
func TestDeltaDecodeIgnoresClaimedCounts(t *testing.T) {
	base, _, _, frames := checkpointSeeds(t)
	_, w := binary.Uvarint(frames[0])
	record := frames[0][w+4:]
	huge := decision.AppendU64(nil, 1<<40)

	// The reject-reason count is the first count in a record, behind the
	// clock's four integers and the accounting scalars.
	r := &decision.Reader{B: record}
	ints, floats := resultScalars(new(sim.Result))
	for i := 0; i < 4+len(ints); i++ {
		r.Int()
	}
	for range floats {
		r.F64()
	}
	head := record[:len(record)-len(r.B)]
	nReasons := r.U64()
	for i := uint64(0); i < nReasons; i++ {
		decision.ReadReason(r)
		r.Int()
	}
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	upToDecisions := record[:len(record)-len(r.B)]

	admitted := schedule.Decision{TaskID: 7, Admitted: true, Schedule: &schedule.Schedule{TaskID: 7}}
	lyingPlan := decision.Append(nil, 7, &admitted)
	lyingPlan = append(lyingPlan[:len(lyingPlan)-1], huge...) // placement count

	// A snapshot whose header claims 2^20 nodes × 2^20 slots, in front of
	// a real record.
	hdr := decision.AppendStr(decision.AppendStr(nil, base.RunLabel), base.Scheduler)
	hdr = decision.AppendInt(decision.AppendInt(hdr, 1<<20), 1<<20)
	hdr = append(hdr, 1, 0, 0, 0) // duals; no Down, Leased or Elastic marks
	lyingShape := decision.AppendU64(append([]byte(nil), snapshotMagic...), checkpointVersion)
	lyingShape = decision.AppendFrame(decision.AppendFrame(lyingShape, hdr), record)

	fold := func(payload []byte) func() error {
		return func() error {
			ck := *base
			ck.Decisions = new(decision.Store)
			return applyDeltaRecord(&ck, payload)
		}
	}
	for _, tc := range []struct {
		name, want string // want: what the decoder refuses with
		decode     func() error
		size       int
	}{
		{"reasons", "truncated byte", fold(append(append([]byte(nil), head...), huge...)), len(head) + len(huge)},
		{"placements", "truncated placements", fold(append(append([]byte(nil), upToDecisions...), lyingPlan...)),
			len(upToDecisions) + len(lyingPlan)},
		{"snapshot shape", "claims 1048576 nodes × 1048576 slots",
			func() error { _, err := readSnapshot(lyingShape); return err }, len(lyingShape)},
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := tc.decode()
		runtime.ReadMemStats(&m1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: bytes claiming 2^40 entries decoded with err %v", tc.name, err)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes for %d bytes", tc.name, grew, tc.size)
		}
	}
}
