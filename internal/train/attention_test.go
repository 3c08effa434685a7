package train

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pdftsp/pdftsp/internal/tensor"
)

func newAttn(t *testing.T, nTasks int) *AttentionTrainer {
	t.Helper()
	at, err := NewAttentionTrainer(DefaultAttentionConfig(), nTasks, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	return at
}

func TestAttentionConfigValidate(t *testing.T) {
	if err := DefaultAttentionConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []AttentionConfig{
		{DModel: 0, SeqLen: 4, Rank: 2, Alpha: 4, LR: 0.1},
		{DModel: 8, SeqLen: 0, Rank: 2, Alpha: 4, LR: 0.1},
		{DModel: 8, SeqLen: 4, Rank: 0, Alpha: 4, LR: 0.1},
		{DModel: 8, SeqLen: 4, Rank: 9, Alpha: 4, LR: 0.1},
		{DModel: 8, SeqLen: 4, Rank: 2, Alpha: 0, LR: 0.1},
		{DModel: 8, SeqLen: 4, Rank: 2, Alpha: 4, LR: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad attention config %d validated", i)
		}
	}
	if _, err := NewAttentionTrainer(DefaultAttentionConfig(), 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("zero tasks accepted")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := tensor.New(8, 6).Randn(rng, 1)
	k := tensor.New(8, 6).Randn(rng, 1)
	v := tensor.New(8, 6).Randn(rng, 1)
	_, p := attend(q, k, v)
	for i := 0; i < 6; i++ {
		sum := 0.0
		for j := 0; j < 6; j++ {
			pv := p.Data[i*6+j]
			if pv < 0 || pv > 1 {
				t.Fatalf("attention weight %v outside [0,1]", pv)
			}
			sum += pv
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestAttentionUniformWhenScoresEqual(t *testing.T) {
	// Zero queries give equal scores → uniform attention → output is the
	// mean of the value vectors.
	q := tensor.New(4, 3) // zeros
	rng := rand.New(rand.NewSource(5))
	k := tensor.New(4, 3).Randn(rng, 1)
	v := tensor.New(4, 3).Randn(rng, 1)
	o, p := attend(q, k, v)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(p.Data[i*3+j]-1.0/3.0) > 1e-9 {
				t.Fatalf("attention not uniform: %v", p.Data[i*3+j])
			}
		}
	}
	for r := 0; r < 4; r++ {
		mean := (v.Data[r*3] + v.Data[r*3+1] + v.Data[r*3+2]) / 3
		if math.Abs(o.Data[r*3]-mean) > 1e-9 {
			t.Fatalf("output not the value mean: %v vs %v", o.Data[r*3], mean)
		}
	}
}

func TestAttentionFrozenProjections(t *testing.T) {
	at := newAttn(t, 2)
	at.Train(60)
	if !at.Frozen() {
		t.Fatal("training modified frozen attention projections")
	}
}

func TestAttentionLossDecreases(t *testing.T) {
	at := newAttn(t, 2)
	early, late := at.Train(400)
	for i := range early {
		if late[i] >= early[i]*0.7 {
			t.Errorf("task %d attention loss did not drop 30%%: %v -> %v", i, early[i], late[i])
		}
	}
}

func TestAttentionGradCheckThroughSoftmax(t *testing.T) {
	at := newAttn(t, 2)
	at.Train(5)
	for i := 0; i < at.NumTasks(); i++ {
		if rel := at.GradCheck(i, 1e-5); rel > 1e-3 {
			t.Errorf("task %d adapter gradients off by rel %v (softmax chain)", i, rel)
		}
	}
}

func TestAttentionDeterministic(t *testing.T) {
	run := func() []float64 {
		at, err := NewAttentionTrainer(DefaultAttentionConfig(), 2, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		_, late := at.Train(30)
		return late
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("attention training not deterministic")
		}
	}
}

// pinnedLosses are Step's per-task losses over the first 30 steps of
// newAttn(t, 2), as float64 bits. A refactor of the trainer that moves one
// bit of the forward pass, the backward pass or Adam fails here.
var pinnedLosses = [30][2]uint64{
	{0x3f884a46c6784a4a, 0x3f719a22ad695d23},
	{0x3f95fe1858d90730, 0x3f9bfb91abf085bb},
	{0x3f9513cfe909f826, 0x3f8eae33fc10fd12},
	{0x3fa0d1687fb15804, 0x3f8ed2a23168439c},
	{0x3f82b339e9880175, 0x3f849843829466c7},
	{0x3fb20bdc5a5707df, 0x3f96febf066ea570},
	{0x3f87964a88d5554c, 0x3f89f5177df62584},
	{0x3f8b6247998c86bf, 0x3f9106e75ca2a529},
	{0x3f795f74aebade13, 0x3f86c0809de24c37},
	{0x3f919ca5dad5e23c, 0x3f81c9708c9847b1},
	{0x3f804a04b4f38ff6, 0x3f883422dd06a4fb},
	{0x3f74f34fbb1fe6db, 0x3f6134a957677897},
	{0x3f853646d3d26407, 0x3f85eef948aecf1f},
	{0x3f90ae5c2baf480b, 0x3f73d00423455025},
	{0x3f947f4f4f29c346, 0x3f8ff1f35e2060b0},
	{0x3f9e4ca3532dd560, 0x3f7f1f9c48ae98e1},
	{0x3f9e7642dac02248, 0x3f84d42551cbd5bd},
	{0x3f94a5b5e8a6f04a, 0x3f90b30f677f6dc0},
	{0x3f9346ab79ed74a1, 0x3f81dac6b29b30c9},
	{0x3f83e3db08bf82e4, 0x3f7b15dd4e335c23},
	{0x3f811e9c27973751, 0x3f6cfa863ed189c2},
	{0x3f83f2ff3f1e2b4d, 0x3f83998cf789df9d},
	{0x3f76d037462b1b53, 0x3f8f51a2a5aa24d9},
	{0x3f931698a66d4f06, 0x3f830377154f8fbc},
	{0x3f7bb0b400de201b, 0x3f80dee8fd9514d9},
	{0x3f9381aaae6b94a5, 0x3f7b5bbe440dd12e},
	{0x3f9bcca09e4a6355, 0x3f8336e49528400c},
	{0x3f778cff58f528be, 0x3f7d07b091572cfb},
	{0x3f8e8a8ebf780c09, 0x3f801982c29b036b},
	{0x3f81e4b8495ac0a2, 0x3f93091230331413},
}

func TestAttentionLossesPinned(t *testing.T) {
	at := newAttn(t, 2)
	for s, want := range pinnedLosses {
		for i, l := range at.Step() {
			if got := math.Float64bits(l); got != want[i] {
				t.Fatalf("step %d task %d: loss %v (%#016x), pinned %v (%#016x)",
					s, i, l, got, math.Float64frombits(want[i]), want[i])
			}
		}
	}
}

func TestZeroInitBGivesBaseForward(t *testing.T) {
	// With Bq = Bv = 0 the adapters contribute nothing: the output is the
	// frozen layer's attention, whatever A holds.
	at := newAttn(t, 1)
	x, _ := at.sample(0)
	d, seq := at.cfg.DModel, at.cfg.SeqLen
	q, k, v := tensor.New(d, seq), tensor.New(d, seq), tensor.New(d, seq)
	tensor.MatMul(q, at.wq, x)
	tensor.MatMul(k, at.wk, x)
	tensor.MatMul(v, at.wv, x)
	want, _ := attend(q, k, v)
	for _, scaleA := range []float64{1, 100} {
		at.adapters[0].aq.w.Scale(scaleA)
		at.adapters[0].av.w.Scale(scaleA)
		o, _, _, _ := at.forward(0, x)
		for j := range want.Data {
			if o.Data[j] != want.Data[j] {
				t.Fatalf("A scaled by %v: B=0 adapter changed output %d: %v, base %v", scaleA, j, o.Data[j], want.Data[j])
			}
		}
	}
}

// norm returns the Frobenius norm of a − b.
func norm(a, b *tensor.Matrix) float64 {
	s := 0.0
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestAdaptersDiverge(t *testing.T) {
	at := newAttn(t, 2)
	at.Train(200)
	a0, a1 := at.adapters[0], at.adapters[1]
	zero := tensor.New(at.cfg.DModel, at.cfg.Rank)
	for _, pair := range [][2]*param{{&a0.bq, &a1.bq}, {&a0.bv, &a1.bv}} {
		if norm(pair[0].w, pair[1].w) < 1e-6 {
			t.Fatal("adapters of different tasks did not diverge")
		}
		// And each adapter moved away from its zero-initialized B.
		if norm(pair[0].w, zero) < 1e-6 || norm(pair[1].w, zero) < 1e-6 {
			t.Fatal("adapters did not train")
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(x) = ||x - target||² with gradients 2(x-target).
	target := []float64{1, -2, 3}
	p := newParam(tensor.New(1, 3))
	for i := 0; i < 500; i++ {
		for j, tj := range target {
			p.g.Data[j] = 2 * (p.w.Data[j] - tj)
		}
		p.adam(0.1)
	}
	for j, tj := range target {
		if math.Abs(p.w.Data[j]-tj) > 1e-3 {
			t.Fatalf("Adam did not converge: %v", p.w.Data)
		}
	}
}

func TestOptimizerStatePerAdapter(t *testing.T) {
	// Each adapter matrix owns its gradient and Adam moments: no buffer is
	// shared across matrices or tasks, so one task's state cannot leak
	// into another's.
	at := newAttn(t, 2)
	seen := map[*float64]bool{}
	for _, ad := range at.adapters {
		for _, p := range ad.params() {
			for _, b := range []*tensor.Matrix{p.w, p.g, p.m, p.v} {
				if seen[&b.Data[0]] {
					t.Fatal("two adapter matrices share a buffer")
				}
				seen[&b.Data[0]] = true
			}
		}
	}
	at.Step()
	for i, ad := range at.adapters {
		for _, p := range ad.params() {
			if p.t != 1 {
				t.Fatalf("task %d: optimizer step count %d after one Step, want 1", i, p.t)
			}
		}
	}
	if norm(at.adapters[0].bq.m, at.adapters[1].bq.m) == 0 {
		t.Fatal("two tasks' Adam moments are equal after one step on different data")
	}
}
