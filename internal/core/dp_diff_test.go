package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// bruteForceCost solves problem (12) by exhaustive enumeration: every slot
// in the execution window either idles or runs on one node, and a plan is
// feasible when the accumulated work reaches W. It returns the minimum
// price-adjusted cost Σ Δ_kt over feasible plans.
func bruteForceCost(s *Scheduler, env *schedule.TaskEnv, q vendor.Quote) (float64, bool) {
	t := env.Task
	window := t.ExecWindow(s.cl.Horizon(), q.DelaySlots)
	L := window.Len()
	W := t.Work
	K := len(env.Speed)
	best, found := math.Inf(1), false
	// choice[tau] in 0..K: 0 = idle, j>0 = run on node j-1.
	choice := make([]int, L)
	for {
		cost, work := 0.0, 0
		valid := true
		for tau := 0; tau < L; tau++ {
			j := choice[tau]
			if j == 0 {
				continue
			}
			k := j - 1
			sk := env.Speed[k]
			if sk <= 0 {
				valid = false
				break
			}
			slot := window.Start + tau
			cost += float64(sk)*s.lambda[k][slot] +
				t.MemGB*s.phi[k][slot] +
				s.cl.EnergyCost(k, slot, sk)
			work += sk
		}
		if valid && work >= int(W) && cost < best {
			best, found = cost, true
		}
		// Advance the mixed-radix counter.
		tau := 0
		for ; tau < L; tau++ {
			choice[tau]++
			if choice[tau] <= K {
				break
			}
			choice[tau] = 0
		}
		if tau == L {
			break
		}
	}
	return best, found
}

// TestFindScheduleMatchesBruteForce differentially checks the Algorithm-2
// DP against exhaustive enumeration on small random instances: ≤3 nodes,
// ≤6-slot windows, heterogeneous speeds including zero-speed nodes,
// work saturation (per-slot speed overshooting W), random positive duals,
// and vendor delays that shrink or empty the window.
func TestFindScheduleMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cl := testCluster(t, 3)
	s := newScheduler(t, cl, testOptions())
	candidates := []int{0, 1, 2}

	for trial := 0; trial < 400; trial++ {
		// Random shadow prices (duals are always non-negative).
		for k := range s.lambda {
			for tt := range s.lambda[k] {
				s.lambda[k][tt] = rng.Float64() * 2
				s.phi[k][tt] = rng.Float64() * 0.4
			}
		}
		arrival := rng.Intn(4)
		winLen := rng.Intn(6) + 1
		tk := &task.Task{
			ID: trial, Arrival: int32(arrival), Deadline: int32(arrival + winLen - 1),
			Work: int32(rng.Intn(10) + 1), MemGB: 5, Batch: 16, Bid: 50,
		}
		speeds := make([]int, 3)
		for k := range speeds {
			speeds[k] = rng.Intn(4) // 0 = task cannot run there
		}
		env := &schedule.TaskEnv{Task: tk, Cluster: cl, Speed: speeds}
		// Delays up to winLen+1 cover shrunken and empty windows.
		q := vendor.Quote{Vendor: 0, Price: 1, DelaySlots: rng.Intn(winLen + 2)}

		plan, ok := s.findSchedule(env, q, candidates)
		want, wantOK := bruteForceCost(s, env, q)
		if ok != wantOK {
			t.Fatalf("trial %d: DP feasible=%v, brute force=%v (W=%d speeds=%v win=%v delay=%d)",
				trial, ok, wantOK, tk.Work, speeds, tk.ExecWindow(cl.Horizon(), q.DelaySlots), q.DelaySlots)
		}
		if !ok {
			continue
		}
		got := s.planCost(env, &plan)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: DP cost %v != brute-force optimum %v (W=%d speeds=%v)",
				trial, got, want, tk.Work, speeds)
		}
		// The plan itself must be consistent: inside the window, on
		// runnable nodes, and accumulating enough work.
		window := tk.ExecWindow(cl.Horizon(), q.DelaySlots)
		work := 0
		for _, p := range plan.Placements {
			if p.Slot < window.Start || p.Slot > window.End {
				t.Fatalf("trial %d: placement slot %d outside window %v", trial, p.Slot, window)
			}
			if speeds[p.Node] <= 0 {
				t.Fatalf("trial %d: placed on zero-speed node %d", trial, p.Node)
			}
			work += speeds[p.Node]
		}
		if work < int(tk.Work) {
			t.Fatalf("trial %d: plan accumulates %d of %d work units", trial, work, tk.Work)
		}
	}
}

// TestDecisionDualsUpdated pins the Lemma-1 bookkeeping: admitted bids and
// capacity rejections moved the duals; surplus rejections never reached
// the update step.
func TestDecisionDualsUpdated(t *testing.T) {
	// Admission updates duals.
	cl := testCluster(t, 2)
	s := newScheduler(t, cl, testOptions())
	d := s.Offer(envFor(t, testTask(0), cl, nil))
	if !d.Admitted || !d.DualsUpdated {
		t.Fatalf("admitted bid should report DualsUpdated, got admitted=%v updated=%v", d.Admitted, d.DualsUpdated)
	}

	// Capacity rejection (full cluster, zero duals): duals still move.
	cl = testCluster(t, 1)
	for tt := 0; tt < 24; tt++ {
		cl.Commit(0, tt, 86, 70)
	}
	s = newScheduler(t, cl, testOptions())
	d = s.Offer(envFor(t, testTask(1), cl, nil))
	if d.Admitted || d.Reason != schedule.ReasonCapacity {
		t.Fatalf("setup: want capacity rejection, got admitted=%v reason=%q", d.Admitted, d.Reason)
	}
	if !d.DualsUpdated {
		t.Fatal("capacity rejection (Lemma 1) should report DualsUpdated")
	}

	// Surplus rejection: a worthless bid never updates duals.
	cl = testCluster(t, 2)
	s = newScheduler(t, cl, testOptions())
	tk := testTask(2)
	tk.Bid = 0.001
	d = s.Offer(envFor(t, tk, cl, nil))
	if d.Admitted || d.Reason != schedule.ReasonSurplus {
		t.Fatalf("setup: want surplus rejection, got admitted=%v reason=%q", d.Admitted, d.Reason)
	}
	if d.DualsUpdated {
		t.Fatal("surplus rejection must not report DualsUpdated")
	}
}

// refScratch is the scratch of refFindSchedule, the per-node DP that
// findSchedule replaced, kept apart from the scheduler's own.
type refScratch struct {
	dpBuf      []float64
	parentKBuf []int32
	parentWBuf []int32
	dpRows     []refRows
	candID     []int32
	candSpeed  []int32
	candDelta  []float64
	planBuf    [2][]schedule.Placement
	planCur    int
	fullPrefix []int32
	genSeen    uint64
}

// refRows is one DP row triple of refFindSchedule.
type refRows struct {
	dp      []float64
	parentK []int32
	parentW []int32
}

// refFindSchedule is findSchedule as it was before the DP ran over speed
// groups: every candidate is visited at every reachable cell, and each
// cell keeps a float64 cost, an int32 parent node and an int32 parent
// work level. It is the plan-identity oracle for the speed-group DP.
func refFindSchedule(s *Scheduler, sc *refScratch, env *schedule.TaskEnv, q vendor.Quote, candidates []int) (schedule.Schedule, bool) {
	t := env.Task
	h := s.cl.Horizon()
	window := t.ExecWindow(h, q.DelaySlots)
	L := window.Len()
	if L == 0 {
		return schedule.Schedule{}, false
	}
	W := int(t.Work)

	// dp, parentK, and parentW are (L+1)×(W+1); row τ covers slots
	// window.Start .. window.Start+τ-1. Work accumulations beyond W
	// saturate at W (the final slot may overshoot M_i). The backing
	// arrays and the row headers over them live on the scheduler and are
	// reused across offers; only dp needs clearing — parent cells are
	// always written before the back-walk reads them, because the walk
	// visits only cells the forward pass reached this offer.
	cells := (L + 1) * (W + 1)
	if cap(sc.dpBuf) < cells {
		sc.dpBuf = make([]float64, cells)
		sc.parentKBuf = make([]int32, cells)
		sc.parentWBuf = make([]int32, cells)
	}
	if cap(sc.dpRows) < L+1 {
		sc.dpRows = make([]refRows, L+1)
	}
	dpFlat := sc.dpBuf[:cells]
	for i := range dpFlat {
		dpFlat[i] = dpInf
	}
	rows := sc.dpRows[:L+1]
	for i := range rows {
		rows[i].dp = dpFlat[i*(W+1) : (i+1)*(W+1)]
		rows[i].parentK = sc.parentKBuf[i*(W+1) : (i+1)*(W+1)] // node index +1, 0 = idle
		rows[i].parentW = sc.parentWBuf[i*(W+1) : (i+1)*(W+1)] // predecessor work level
	}
	rows[0].dp[0] = 0

	if cap(sc.candID) < len(candidates) {
		sc.candID = make([]int32, len(candidates))
		sc.candSpeed = make([]int32, len(candidates))
		sc.candDelta = make([]float64, len(candidates))
	}

	// The saturation prefix survives across offers only while the ledger
	// moves monotonically toward full; any availability-increasing
	// mutation bumps the cluster generation and resets it.
	if s.opts.MaskFullCells && sc.genSeen != s.cl.Generation() {
		clear(sc.fullPrefix)
		sc.genSeen = s.cl.Generation()
	}

	for tau := 0; tau < L; tau++ {
		slot := window.Start + tau
		// Δ_kt = s_ik·λ_kt + r_i·φ_kt + e_ikt does not depend on the
		// accumulated work w: compute it once per (slot, candidate)
		// instead of once per DP cell.
		nc := 0
		for _, k := range candidates {
			sk := env.Speed[k]
			if sk <= 0 {
				continue
			}
			if s.opts.MaskFullCells {
				// Slots below the saturation prefix are known full;
				// skip them without touching the ledger.
				if slot < int(sc.fullPrefix[k]) {
					continue
				}
				if !s.cl.CanPlace(k, slot, sk, t.MemGB) {
					// Extend the prefix only when the slot is full for
					// every possible task (zero free work), so the skip
					// stays exact for later offers with other speeds.
					if slot == int(sc.fullPrefix[k]) && s.cl.RemainingWork(k, slot) == 0 {
						sc.fullPrefix[k] = int32(slot + 1)
					}
					continue
				}
			}
			sc.candID[nc] = int32(k + 1)
			sc.candSpeed[nc] = int32(sk)
			sc.candDelta[nc] = float64(sk)*s.lambda[k][slot] +
				t.MemGB*s.phi[k][slot] +
				s.cl.EnergyCost(k, slot, sk)
			nc++
		}
		candID := sc.candID[:nc]
		candSpeed := sc.candSpeed[:nc]
		candDelta := sc.candDelta[:nc]
		curRow := rows[tau].dp
		nextRow := rows[tau+1].dp
		pkRow := rows[tau+1].parentK
		pwRow := rows[tau+1].parentW
		for w := 0; w <= W; w++ {
			cur := curRow[w]
			if cur == dpInf {
				continue
			}
			// Idle this slot.
			if cur < nextRow[w] {
				nextRow[w] = cur
				pkRow[w] = 0
				pwRow[w] = int32(w)
			}
			if w == W {
				continue // already done; idling forward is enough
			}
			for j := range candDelta {
				nw := w + int(candSpeed[j])
				if nw > W {
					nw = W
				}
				if c := cur + candDelta[j]; c < nextRow[nw] {
					nextRow[nw] = c
					pkRow[nw] = candID[j]
					pwRow[nw] = int32(w)
				}
			}
		}
	}
	if rows[L].dp[W] == dpInf {
		return schedule.Schedule{}, false
	}

	// Reconstruct placements by walking parents back from (L, W) into the
	// scratch buffer (reverse order), then reverse in place.
	placements := sc.planBuf[sc.planCur][:0]
	w := W
	for tau := L; tau > 0; tau-- {
		if p := rows[tau].parentK[w]; p != 0 {
			placements = append(placements, schedule.Placement{Node: int(p) - 1, Slot: window.Start + tau - 1})
		}
		w = int(rows[tau].parentW[w])
	}
	for i, j := 0, len(placements)-1; i < j; i, j = i+1, j-1 {
		placements[i], placements[j] = placements[j], placements[i]
	}
	sc.planBuf[sc.planCur] = placements
	vendorIdx := q.Vendor
	price, delay := q.Price, q.DelaySlots
	if !t.NeedsPrep {
		vendorIdx, price, delay = schedule.NoVendor, 0, 0
	}
	return schedule.Schedule{
		TaskID:      t.ID,
		Vendor:      vendorIdx,
		VendorPrice: price,
		VendorDelay: delay,
		Placements:  placements,
	}, true
}

// Modes of a plan-identity instance: each bit forces one way a wrong
// tie-break between nodes would show.
const (
	// dpMask sets Options.MaskFullCells and commits full prefixes, so
	// the saturation cache skips cells and later plans see the ledger.
	dpMask uint8 = 1 << iota
	// dpFreeEnergy prices energy at zero: Δ = s·λ + r·φ, so nodes of
	// different speeds cost the same and tie on the saturated column.
	dpFreeEnergy
	// dpQuantised draws duals from a coarse grid, so Δ ties exactly
	// within a group and across groups.
	dpQuantised
	// dpHuge prices some cells near 1e17, so later Δs that differ by less
	// than the running cost's rounding step sum to the same cost.
	dpHuge
)

// diffDP builds one random instance from (seed, mode, data) and checks
// that findSchedule returns the plan refFindSchedule returns, quote by
// quote, over three successive tasks whose plans are committed. data, if
// not empty, supplies the dual bytes (cycled). It returns how many plans
// placed work on a node that is not its speed group's cheapest in that
// slot — the rounding ties only the near-tie visits get right.
func diffDP(tb testing.TB, seed int64, mode uint8, data []byte) (roundingTies int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	const T = 12
	K := 2 + rng.Intn(6)
	nodes := make([]cluster.Node, K)
	for k := range nodes {
		spec := []gpu.Spec{gpu.A100, gpu.A40}[rng.Intn(2)]
		nodes[k] = cluster.Node{Spec: spec, CapWork: []int{24, 86}[rng.Intn(2)], CapMemGB: spec.MemGB - float64(8*rng.Intn(2))}
	}
	var price gpu.PriceCurve = gpu.DefaultDiurnal()
	if mode&dpFreeEnergy != 0 {
		price = gpu.FlatPrice(0)
	}
	cl, err := cluster.New(cluster.Config{Horizon: timeslot.NewHorizon(T), BaseModelGB: 2, Price: price}, nodes)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(cl, Options{Alpha: 3.5, Beta: 60, MaskFullCells: mode&dpMask != 0})
	if err != nil {
		tb.Fatal(err)
	}
	ref := &refScratch{fullPrefix: make([]int32, K), genSeen: cl.Generation()}
	if mode&dpMask != 0 {
		for k := 0; k < K; k++ {
			full := rng.Intn(4) // a saturated prefix of 0-3 slots
			for tt := 0; tt < T; tt++ {
				if tt < full {
					cl.Commit(k, tt, cl.Node(k).CapWork, 1)
				} else if rng.Intn(3) == 0 {
					cl.Commit(k, tt, rng.Intn(cl.Node(k).CapWork), 1)
				}
			}
		}
	}
	next := func() byte {
		if len(data) == 0 {
			return byte(rng.Intn(256))
		}
		b := data[0]
		data = append(data[1:], b)
		return b
	}
	dual := func(scale float64) float64 {
		b := next()
		switch {
		case mode&dpHuge != 0 && b%5 == 0:
			return 1e17 * float64(1+b%3)
		case mode&dpQuantised != 0:
			return float64(b%4) * scale
		}
		return float64(b) / 97 * scale
	}
	for k := 0; k < K; k++ {
		for tt := 0; tt < T; tt++ {
			s.lambda[k][tt] = dual(0.5)
			s.phi[k][tt] = dual(0.25)
		}
	}
	// A small speed palette repeats speeds across nodes of either type;
	// 0 is a node the task cannot run on.
	palette := []int{0, 1 + rng.Intn(3), 1 + rng.Intn(5), 6 + rng.Intn(10)}
	speeds := make([]int, K)
	for k := range speeds {
		speeds[k] = palette[rng.Intn(len(palette))]
	}
	candidates := s.candidateNodes()
	for bid := 0; bid < 3; bid++ {
		arrival := rng.Intn(4)
		winLen := 1 + rng.Intn(8)
		tk := &task.Task{
			ID: bid, Arrival: int32(arrival), Deadline: int32(min(arrival+winLen-1, T-1)),
			Work: int32(1 + rng.Intn(20)), MemGB: 5, Batch: 16, Bid: 50, NeedsPrep: true,
		}
		env := &schedule.TaskEnv{Task: tk, Cluster: cl, Speed: speeds}
		var commit []schedule.Placement
		for v := 0; v < 3; v++ {
			// Delays up to winLen+1 shrink or empty the window.
			q := vendor.Quote{Vendor: v, Price: float64(v), DelaySlots: rng.Intn(winLen + 2)}
			got, ok := s.findSchedule(env, q, candidates)
			want, wantOK := refFindSchedule(s, ref, env, q, candidates)
			if ok != wantOK {
				tb.Fatalf("seed %d mode %#x bid %d quote %v: feasible %v, reference %v", seed, mode, bid, q, ok, wantOK)
			}
			if !ok {
				continue
			}
			if got.Vendor != want.Vendor || got.VendorPrice != want.VendorPrice || got.VendorDelay != want.VendorDelay ||
				!slices.Equal(got.Placements, want.Placements) {
				tb.Fatalf("seed %d mode %#x bid %d quote %v: plan\n%+v\nreference\n%+v", seed, mode, bid, q, got, want)
			}
			if f, g := s.surplus(env, &got), s.surplus(env, &want); math.Float64bits(f) != math.Float64bits(g) {
				tb.Fatalf("seed %d mode %#x bid %d: surplus %v, reference %v", seed, mode, bid, f, g)
			}
			for _, p := range got.Placements {
				if !groupCheapest(s, env, candidates, p) {
					roundingTies++
				}
			}
			commit = append(commit[:0], got.Placements...)
		}
		for _, p := range commit {
			cl.Commit(p.Node, p.Slot, speeds[p.Node], tk.MemGB)
		}
	}
	return roundingTies
}

// groupCheapest reports whether placement p's node is, among the
// candidates of its speed, the first with the least Δ at p's slot.
func groupCheapest(s *Scheduler, env *schedule.TaskEnv, candidates []int, p schedule.Placement) bool {
	delta := func(k int) float64 {
		sk := env.Speed[k]
		return float64(sk)*s.lambda[k][p.Slot] + env.Task.MemGB*s.phi[k][p.Slot] + s.cl.EnergyCost(k, p.Slot, sk)
	}
	best, rep := math.Inf(1), -1
	for _, k := range candidates {
		if env.Speed[k] != env.Speed[p.Node] {
			continue
		}
		if s.opts.MaskFullCells && !s.cl.CanPlace(k, p.Slot, env.Speed[k], env.Task.MemGB) {
			continue
		}
		if d := delta(k); d < best {
			best, rep = d, k
		}
	}
	return rep == p.Node
}

// TestFindScheduleMatchesReference is the plan-identity differential for
// the speed-group DP: on random instances covering every mode — equal Δ
// within a group, different speeds at equal cost on the saturated column,
// zero-speed nodes, MaskFullCells on and off over saturated prefixes,
// delays that shrink or empty the window, quantised and near-1e17 duals —
// its plans, vendors and surplus bits equal the per-node DP's.
func TestFindScheduleMatchesReference(t *testing.T) {
	trials := 4000
	if testing.Short() {
		trials = 800
	}
	ties := 0
	for seed := 0; seed < trials; seed++ {
		ties += diffDP(t, int64(seed), uint8(seed%16), nil)
	}
	t.Logf("%d trials, %d placements on a node other than its group's cheapest", trials, ties)
	// The near-1e17 instances must reach the rounding case at least
	// once, or the visits that handle it go untested.
	if ties == 0 {
		t.Fatal("no plan placed work on a node other than its group's cheapest")
	}
}

// TestFindScheduleRoundingTie pins the one case a group's cheapest node
// alone gets wrong. Both nodes run at speed 1 and both slots are needed.
// Slot 0 costs 1e17 on both, and at slot 1 node 0 costs 7 and node 1
// costs 0: 1e17+7 rounds to 1e17 (the spacing there is 16), so the
// per-node scan keeps node 0, the first to reach that cost, though node 1
// is cheaper. 7 is close to the widest gap that can round away, so a
// near-tie threshold too tight by a factor of 16 fails here too.
func TestFindScheduleRoundingTie(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Horizon: timeslot.NewHorizon(4), BaseModelGB: 2, Price: gpu.FlatPrice(0)},
		cluster.Uniform(2, gpu.A100, 86, 80))
	if err != nil {
		t.Fatal(err)
	}
	s := newScheduler(t, cl, testOptions())
	s.lambda[0][0], s.lambda[1][0] = 1e17, 1e17
	s.lambda[0][1], s.lambda[1][1] = 7, 0
	tk := &task.Task{ID: 1, Arrival: 0, Deadline: 1, Work: 2, MemGB: 5, Batch: 16, Bid: 50}
	env := &schedule.TaskEnv{Task: tk, Cluster: cl, Speed: []int{1, 1}}
	q := vendor.Quote{Vendor: schedule.NoVendor}
	plan, ok := s.findSchedule(env, q, s.candidateNodes())
	want := []schedule.Placement{{Node: 0, Slot: 0}, {Node: 0, Slot: 1}}
	if !ok || !slices.Equal(plan.Placements, want) {
		t.Fatalf("plan %v (ok %v), want %v", plan.Placements, ok, want)
	}
	ref, _ := refFindSchedule(s, &refScratch{fullPrefix: make([]int32, 2)}, env, q, s.candidateNodes())
	if !slices.Equal(ref.Placements, want) {
		t.Fatalf("reference plan %v, want %v", ref.Placements, want)
	}
}

// FuzzFindSchedule explores plan identity beyond the random trials: the
// fuzzer picks the instance seed, the mode bits and the dual bytes.
func FuzzFindSchedule(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte(nil))
	f.Add(int64(2), dpMask, []byte{0, 255, 3, 3, 3, 3})
	f.Add(int64(3), dpFreeEnergy|dpQuantised, []byte{1, 2, 1, 2})
	f.Add(int64(4), dpMask|dpQuantised, []byte{0, 0, 0, 1})
	f.Add(int64(5), dpHuge|dpQuantised, []byte{5, 1, 3, 10, 2})
	f.Add(int64(6), dpHuge|dpFreeEnergy|dpMask, []byte{0, 9, 15, 7})
	f.Add(int64(7), uint8(0xff), []byte{20, 40, 60})
	f.Fuzz(func(t *testing.T, seed int64, mode uint8, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		diffDP(t, seed, mode, data)
	})
}

// retainedBytes sums the capacity of every slice the value holds
// directly, or in an array, in bytes.
func retainedBytes(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Slice:
		n = v.Cap() * int(v.Type().Elem().Size())
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			n += retainedBytes(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += retainedBytes(v.Field(i))
		}
	}
	return n
}

// TestDPScratchBudget pins what the DP keeps between offers: after one
// offer of admit-wide's size (128 nodes of two GPU types, a 124-slot
// window, 100 work units), the scheduler's scratch holds at most 2 B per
// (τ, w) cell, plus rows of W+1, per-slot entries per speed group over
// the horizon and per-node entries. The per-node DP kept 16 B per cell.
func TestDPScratchBudget(t *testing.T) {
	model, h := testModel(), timeslot.Day()
	nodes := cluster.Uniform(64, gpu.A100, lora.NodeCapUnits(model, gpu.A100, h), gpu.A100.MemGB)
	nodes = append(nodes, cluster.Uniform(64, gpu.A40, lora.NodeCapUnits(model, gpu.A40, h), gpu.A40.MemGB)...)
	cl, err := cluster.New(cluster.Config{Horizon: h, BaseModelGB: lora.BaseMemoryGB(model)}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	s := newScheduler(t, cl, testOptions())
	const L, W = 124, 100
	tk := &task.Task{ID: 1, Arrival: 10, Deadline: 10 + L - 1, Work: W, MemGB: 5, Batch: 16, Bid: 1e4}
	env := schedule.NewTaskEnv(tk, cl, model, nil)
	if d := s.Offer(env); d.Schedule == nil {
		t.Fatalf("no plan: %s", d.Reason)
	}
	K, G := cl.NumNodes(), len(s.scratch.groupSpeed)
	if G != 2 {
		t.Fatalf("%d speed groups, want 2", G)
	}
	got := retainedBytes(reflect.ValueOf(s.scratch))
	budget := 2*L*(W+1) + 16*(W+1) + 32*h.T*(G+1) + 64*K
	t.Logf("DP scratch %d B for %d cells (%.2f B/cell); budget %d", got, L*(W+1), float64(got)/float64(L*(W+1)), budget)
	if got > budget {
		t.Fatalf("DP scratch retains %d B, budget %d", got, budget)
	}
}
