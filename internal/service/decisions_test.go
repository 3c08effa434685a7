package service

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
)

// TestRecordSizes pins what one bid costs at rest: the task a workload and
// a held bid carry, the decision a collecting run keeps, and the record the
// broker files it as. A field added or widened without thought shows here
// before it shows as megabytes in the benchmark's live_heap_mb.
func TestRecordSizes(t *testing.T) {
	for _, r := range []struct {
		name      string
		got, want uintptr
		exact     bool
	}{
		{"task.Task", unsafe.Sizeof(task.Task{}), 72, false},
		{"schedule.Decision", unsafe.Sizeof(schedule.Decision{}), 72, false},
		{"heldBid", unsafe.Sizeof(heldBid{}), 104, false},
		{"decisionRec", unsafe.Sizeof(decisionRec{}), 24, true},
	} {
		if r.got > r.want || r.exact && r.got != r.want {
			t.Errorf("%s is %d bytes, want %d", r.name, r.got, r.want)
		}
	}
}

// randomDecision draws from every shape the store distinguishes: plain
// rejections, F = −Inf, reasons outside schedule.Reason*, a retained
// losing plan, TaskID ≠ id, and admissions with money and a plan.
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
		d.Reason = schedule.RejectReason("custom-\"reason\"\n" + string(rune('a'+rng.Intn(4))))
	case 2:
		d.Schedule = plan() // DropLosingPlans off
	case 3:
		d.TaskID = id + 1 + rng.Intn(5)
	case 4:
		d.Reason, d.DualsUpdated, d.F = schedule.ReasonCapacity, true, rng.Float64()
	case 5, 6:
		d = schedule.Decision{
			TaskID: id, Admitted: true, Schedule: plan(), DualsUpdated: true, F: rng.Float64() * 10,
			Payment: rng.Float64() * 5, VendorCost: rng.Float64(), EnergyCost: rng.Float64(),
		}
	}
	return d
}

// requireStoreEquals holds s to the reference map and decision order.
func requireStoreEquals(t *testing.T, label string, s *decisionStore, ref map[int]schedule.Decision, order []int) {
	t.Helper()
	if s.Len() != len(order) {
		t.Fatalf("%s: %d decisions, want %d", label, s.Len(), len(order))
	}
	i := 0
	s.Each(func(id int, d schedule.Decision) {
		if id != order[i] {
			t.Fatalf("%s: position %d holds id %d, want %d", label, i, id, order[i])
		}
		want := ref[id]
		if msg := sim.DiffDecisions(&d, &want, true); msg != "" {
			t.Fatalf("%s: id %d: %s", label, id, msg)
		}
		i++
	})
	for id := range ref {
		got, ok := s.get(id)
		want := ref[id]
		if !ok || !s.has(id) || sim.DiffDecisions(&got, &want, true) != "" {
			t.Fatalf("%s: get(%d) = %+v, %v; want %+v", label, id, got, ok, want)
		}
	}
}

// TestDecisionStoreMatchesMap drives random put / refund / get / has
// interleavings against a reference map, persisting at random points
// either as a full snapshot (JSON round trip) or as a delta (the sidecar's
// decision encoding applied to a replica), and requires the replica built
// from full + N deltas to equal the reference, in decision order.
func TestDecisionStoreMatchesMap(t *testing.T) {
	// The last three are what a multiplicative hash could take badly:
	// IDs that differ only above bit 20, runs of consecutive IDs at
	// scattered bases, and IDs counting down from the largest allowed.
	for _, ids := range []string{"sequential", "sparse", "assigned", "strided", "runs", "top"} {
		t.Run(ids, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(ids))))
			s, replica := newDecisionStore(), newDecisionStore()
			ref := map[int]schedule.Decision{}
			var order []int
			nextID := 0 // the broker's assignment: one past the largest seen
			runLeft, runAt := 0, 0
			newID := func() int {
				id := nextID
				switch {
				case ids == "sparse", ids == "assigned" && rng.Intn(3) == 0:
					for id = int(rng.Int63()) - rng.Intn(2)*math.MaxInt32; ref[id].TaskID != 0 || s.has(id); {
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
				d := randomDecision(rng, id)
				if err := s.put(id, &d); err != nil {
					t.Fatal(err)
				}
				ref[id] = d
				order = append(order, id)
				return id
			}
			refund := func(id int) {
				s.refund(id)
				d := ref[id]
				d.Admitted, d.Reason = false, schedule.ReasonFailedNode
				ref[id] = d
			}
			persist := func(full bool) {
				if full {
					data, err := json.Marshal(s)
					if err != nil {
						t.Fatal(err)
					}
					replica = new(decisionStore)
					if err := json.Unmarshal(data, replica); err != nil {
						t.Fatal(err)
					}
				} else {
					var p []byte
					n := 0
					s.unsaved(func(id int, d schedule.Decision) {
						p = appendDecision(p, id, &d)
						n++
					})
					r := &binReader{b: p}
					for ; n > 0; n-- {
						id, d := readDecision(r, r.byte())
						if r.err != nil {
							t.Fatal(r.err)
						}
						if err := replica.put(id, &d); err != nil {
							t.Fatal(err)
						}
					}
					if len(r.b) != 0 {
						t.Fatalf("%d bytes left after the delta's decisions", len(r.b))
					}
				}
				s.markSaved()
				requireStoreEquals(t, "replica", replica, ref, order)
			}

			persist(true) // an empty store round-trips too
			growths, table := 0, 0
			for step := 0; step < 4000; step++ {
				if len(s.index) != table {
					growths, table = growths+1, len(s.index)
				}
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
					got, ok := s.get(id)
					want, wantOK := ref[id]
					if ok != wantOK || s.has(id) != wantOK || sim.DiffDecisions(&got, &want, true) != "" {
						t.Fatalf("get(%d) = %+v, %v; want %+v, %v", id, got, ok, want, wantOK)
					}
				default:
					persist(rng.Intn(8) == 0)
				}
			}
			persist(false)
			if growths < 3 {
				t.Fatalf("the index grew %d times; the script is meant to cross at least three rebuilds", growths)
			}
			requireStoreEquals(t, "live store", s, ref, order)

			// A clone and its original share nothing but the plans: the
			// original doubles (its index is rebuilt at least once) and
			// flips its oldest decision, then the clone does the same
			// with other bids, and each still answers for its own.
			c := s.clone()
			requireStoreEquals(t, "clone", c, ref, order)
			cloneRef, cloneOrder := maps.Clone(ref), slices.Clone(order)
			for n := len(order); n > 0; n-- {
				put()
			}
			refund(order[0])
			requireStoreEquals(t, "clone, after its original moved on", c, cloneRef, cloneOrder)
			for n := len(cloneOrder); n > 0; n-- {
				id := -1 - n // no kind draws a negative ID
				d := randomDecision(rng, id)
				if err := c.put(id, &d); err != nil {
					t.Fatal(err)
				}
				cloneRef[id], cloneOrder = d, append(cloneOrder, id)
			}
			c.refund(cloneOrder[1])
			d := cloneRef[cloneOrder[1]]
			d.Admitted, d.Reason = false, schedule.ReasonFailedNode
			cloneRef[cloneOrder[1]] = d
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

// TestDecisionStoreReasonLimit: a record has one byte for its reason, and
// running out is an error, not a wrong reason.
func TestDecisionStoreReasonLimit(t *testing.T) {
	s := newDecisionStore()
	var err error
	n := 0
	for ; err == nil && n < 1000; n++ {
		err = s.put(n, &schedule.Decision{TaskID: n, Reason: schedule.RejectReason(string(rune('A' + n)))})
	}
	if err == nil || s.Len() != n-1 || s.Len()+len(newDecisionStore().reasons) != math.MaxUint8+1 {
		t.Fatalf("%d decisions stored, err %v", s.Len(), err)
	}
	if d, _ := s.get(n - 2); d.Reason != schedule.RejectReason(string(rune('A'+n-2))) {
		t.Fatalf("last accepted reason came back as %q", d.Reason)
	}
}

func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestDecisionStoreMemoryBudget holds the store to 44 B per rejected bid —
// record plus index, whatever the IDs look like — and an admitted bid to
// the same plus its plan: the side entry the store keeps for it, with the
// Schedule itself allocated before the baseline is read. At 100,000 bids
// the index has just doubled, which is its worst case: 24 B of record,
// about a fifth of that again in append slack, and 10.5 B of table. The
// map of schedule.Decision this replaced cost 174 B per rejected bid, the
// map[int]int32 index beside the records 53.
func TestDecisionStoreMemoryBudget(t *testing.T) {
	const budget = 44
	perBid := func(n int, id func(i int) int, decision func(i, id int) schedule.Decision) float64 {
		before := liveHeap()
		s := newDecisionStore()
		for i := 0; i < n; i++ {
			d := decision(i, id(i))
			if err := s.put(id(i), &d); err != nil {
				t.Fatal(err)
			}
		}
		after := liveHeap()
		if s.Len() != n {
			t.Fatalf("%d of %d stored", s.Len(), n)
		}
		return (float64(after) - float64(before)) / float64(n)
	}
	rejected := func(i, id int) schedule.Decision {
		return schedule.Decision{TaskID: id, F: -float64(i), Reason: schedule.ReasonSurplus}
	}
	random := make([]int, 100_000)
	rng := rand.New(rand.NewSource(1))
	for i := range random {
		random[i] = int(rng.Int63())
	}
	for name, id := range map[string]func(int) int{
		"sequential": func(i int) int { return i },
		"random":     func(i int) int { return random[i] },
	} {
		if got := perBid(len(random), id, rejected); got > budget {
			t.Errorf("%s IDs: %.1f B per rejected bid, budget %d", name, got, budget)
		} else {
			t.Logf("%s IDs: %.1f B per rejected bid", name, got)
		}
	}

	plans := make([]*schedule.Schedule, 10_000)
	for i := range plans {
		plans[i] = &schedule.Schedule{TaskID: i, Placements: make([]schedule.Placement, 6)}
	}
	got := perBid(len(plans), func(i int) int { return i }, func(i, id int) schedule.Decision {
		return schedule.Decision{TaskID: id, Admitted: true, Schedule: plans[i], Payment: 1, EnergyCost: 1, F: 1, DualsUpdated: true}
	})
	// The side slice grows by appending, so up to a quarter of it is slack.
	if limit := budget + 1.25*float64(unsafe.Sizeof(decisionExtra{})); got > limit {
		t.Errorf("%.1f B per admitted bid, budget %.0f + the plan", got, limit)
	} else {
		t.Logf("%.1f B per admitted bid beside its Schedule", got)
	}
	runtime.KeepAlive(plans)
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
	opts.Failures = []sim.Failure{{Node: 0, From: 4, To: slots}, {Node: 1, From: 9, To: slots}}
	b := startBroker(t, opts)
	batch := make([]task.Task, perSlot)
	verdicts := make([]error, perSlot)
	for slot := 0; slot < slots; slot++ {
		for i := range batch {
			batch[i] = task.Task{ID: -1, Arrival: -1, Deadline: int32(min(slot+3, slots-1)), Work: 5, MemGB: 2, Rank: 8, Batch: 8, Bid: 5}
		}
		if held, err := b.SubmitBatchAck(context.Background(), batch, verdicts); err != nil || held != perSlot {
			t.Fatalf("slot %d: held %d of %d, err %v", slot, held, perSlot, err)
		}
		if _, err := b.Step(1); err != nil {
			t.Fatal(err)
		}
		if (slot+1)%10 == 0 {
			if err := b.do(func() {
				if d := b.decisions; d.saved != 0 || cap(d.flips) != 0 {
					t.Errorf("after %d bids: saved mark %d, %d flips tracked", d.Len(), d.saved, cap(d.flips))
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
	if len(res.OfferLatency) != 0 {
		t.Fatalf("broker Result holds %d latency samples", len(res.OfferLatency))
	}
}

// checkpointSeeds serves a small workload under a delta cadence and
// returns what its files hold: the full snapshot (and the CRC of its
// bytes, which keys the sidecar), its decision section, and the sidecar's
// header and record frames.
func checkpointSeeds(t testing.TB) (ck *Checkpoint, baseCRC uint32, section, header []byte, frames [][]byte) {
	path := filepath.Join(t.TempDir(), "ck.json")
	deltaStack(t, path, 4, 24, 11, 23)
	ck, data, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Decisions json.RawMessage `json:"decisions"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	side, err := os.ReadFile(DeltaPath(path))
	if err != nil {
		t.Fatal(err)
	}
	r := &binReader{b: side[len(deltaMagic):]}
	r.u64()       // version
	r.b = r.b[4:] // base CRC
	r.int()       // base slot
	r.str()       // run label
	header = side[:len(side)-len(r.b)]
	for len(r.b) > 0 {
		before := r.b
		if frameNext(r) == nil {
			t.Fatal("sidecar has a bad frame")
		}
		frames = append(frames, before[:len(before)-len(r.b)])
	}
	if r.err != nil || len(frames) < 2 {
		t.Fatalf("%d delta frames (err %v), want at least 2", len(frames), r.err)
	}
	return ck, crc32.ChecksumIEEE(data), raw.Decisions, header, frames
}

// FuzzCheckpointDecisions feeds arbitrary bytes to the decoders that read
// decisions from outside the process: the full snapshot's decision
// section, one delta record, and a sidecar whose valid records are
// followed by the bytes. None may panic, and the valid prefix must still
// restore. The seed corpus under testdata/ was cut from a TestSmokeMatrix
// run's checkpoint files; the seeds added here track the current format.
func FuzzCheckpointDecisions(f *testing.F) {
	base, baseCRC, section, header, frames := checkpointSeeds(f)
	f.Add(section)
	for _, fr := range frames {
		f.Add(fr)
		_, w := binary.Uvarint(fr)
		f.Add(fr[w+4:]) // the record inside the frame
	}
	f.Add([]byte(`[{"TaskID":1,"f_neg_inf":true,"Reason":"no-schedule"},{"TaskID":2,"id":1,"Admitted":true,"Schedule":{"Placements":[{"Node":1,"Slot":2}]}}]`))
	baseJSON, err := json.Marshal(base)
	if err != nil {
		f.Fatal(err)
	}
	fresh := func(t testing.TB) *Checkpoint {
		ck := new(Checkpoint)
		if err := json.Unmarshal(baseJSON, ck); err != nil {
			t.Fatal(err)
		}
		return ck
	}
	prefix := append(append([]byte(nil), header...), frames[0]...)
	want := fresh(f)
	if err := replayDeltas(want, prefix, baseCRC); err != nil || want.Slot != base.Slot+1 {
		f.Fatalf("valid prefix: slot %d, err %v", want.Slot, err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s := new(decisionStore)
		if err := s.UnmarshalJSON(data); err == nil {
			if _, err := s.MarshalJSON(); err != nil {
				t.Fatalf("decoded section does not encode: %v", err)
			}
		}
		_ = applyDeltaRecord(fresh(t), data)

		ck := fresh(t)
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
	base, _, _, _, frames := checkpointSeeds(t)
	_, w := binary.Uvarint(frames[0])
	record := frames[0][w+4:]
	huge := appendU64(nil, 1<<40)

	// The reject-reason count is the first count in a record, behind the
	// clock's four integers and the accounting scalars.
	r := &binReader{b: record}
	ints, floats := resultScalars(new(sim.Result))
	for i := 0; i < 4+len(ints); i++ {
		r.int()
	}
	for range floats {
		r.f64()
	}
	head := record[:len(record)-len(r.b)]
	nReasons := r.u64()
	for i := uint64(0); i < nReasons; i++ {
		r.str()
		r.int()
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	upToDecisions := record[:len(record)-len(r.b)]

	admitted := schedule.Decision{TaskID: 7, Admitted: true, Schedule: &schedule.Schedule{TaskID: 7}}
	lyingPlan := appendDecision(nil, 7, &admitted)
	lyingPlan = append(lyingPlan[:len(lyingPlan)-1], huge...) // placement count

	for _, tc := range []struct {
		name, want string // want: what the decoder says ran out
		payload    []byte
	}{
		{"reasons", "uvarint", append(append([]byte(nil), head...), huge...)},
		{"placements", "placements", append(append([]byte(nil), upToDecisions...), lyingPlan...)},
	} {
		ck := *base
		ck.Decisions = newDecisionStore()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := applyDeltaRecord(&ck, tc.payload)
		runtime.ReadMemStats(&m1)
		if err == nil || !strings.Contains(err.Error(), "truncated "+tc.want) {
			t.Errorf("%s: a record claiming 2^40 entries decoded with err %v", tc.name, err)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes for a %d-byte record", tc.name, grew, len(tc.payload))
		}
	}
}
