// Package train co-trains several LoRA fine-tuning tasks over one frozen
// single-head attention layer: every task shares the frozen Wq, Wk and Wv
// and trains only its own adapter pairs ΔW = B·A on the query and value
// projections (Figures 1 and 2 of the paper), with Adam. It runs real
// forward and backward passes on internal/tensor matrices at toy width.
//
// The trainer is the executable check of internal/lora's memory model:
// TestTrainerMatchesLoRAMemoryModel holds its buffers to lora's adapter
// parameter count, its per-parameter charge and its once-per-node base.
package train

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"github.com/pdftsp/pdftsp/internal/tensor"
)

// AttentionConfig sizes a single-head self-attention layer with LoRA
// adapters on the query and value projections — exactly the placement of
// Figure 1 of the paper (and the LoRA paper's default).
type AttentionConfig struct {
	// DModel is the embedding width of Wq, Wk, Wv (all DModel×DModel).
	DModel int
	// SeqLen is the attention sequence length.
	SeqLen int
	// Rank is the LoRA rank r; the adapter scale is Alpha/Rank.
	Rank  int
	Alpha float64
	// LR is Adam's learning rate.
	LR float64
}

// DefaultAttentionConfig returns a small but non-trivial layer.
func DefaultAttentionConfig() AttentionConfig {
	return AttentionConfig{DModel: 16, SeqLen: 8, Rank: 2, Alpha: 4, LR: 0.02}
}

// Validate reports configuration errors.
func (c AttentionConfig) Validate() error {
	if c.DModel <= 0 || c.SeqLen <= 0 {
		return fmt.Errorf("train: non-positive attention dims d=%d seq=%d", c.DModel, c.SeqLen)
	}
	if c.Rank <= 0 || c.Rank > c.DModel {
		return fmt.Errorf("train: rank %d outside (0,%d]", c.Rank, c.DModel)
	}
	if c.LR <= 0 || c.Alpha <= 0 {
		return fmt.Errorf("train: non-positive LR %v or alpha %v", c.LR, c.Alpha)
	}
	return nil
}

// Adam's hyperparameters, the standard defaults.
const (
	beta1   float64 = 0.9
	beta2   float64 = 0.999
	adamEps float64 = 1e-8
)

// param is one trainable adapter matrix w with the buffers training keeps
// beside it, each of w's shape: its gradient g and Adam's first and second
// moments m and v. These four words per parameter are what lora's
// 16 bytes/param charge counts at fp32.
type param struct {
	w, g, m, v *tensor.Matrix
	t          int // Adam steps taken
}

func newParam(w *tensor.Matrix) param {
	return param{
		w: w,
		g: tensor.New(w.Rows, w.Cols),
		m: tensor.New(w.Rows, w.Cols),
		v: tensor.New(w.Rows, w.Cols),
	}
}

// adam applies one bias-corrected Adam step to w from g.
func (p *param) adam(lr float64) {
	p.t++
	c1 := 1 - math.Pow(beta1, float64(p.t))
	c2 := 1 - math.Pow(beta2, float64(p.t))
	for i := range p.w.Data {
		g := p.g.Data[i]
		p.m.Data[i] = beta1*p.m.Data[i] + (1-beta1)*g
		p.v.Data[i] = beta2*p.v.Data[i] + (1-beta2)*g*g
		mhat := p.m.Data[i] / c1
		vhat := p.v.Data[i] / c2
		p.w.Data[i] -= lr * mhat / (math.Sqrt(vhat) + adamEps)
	}
}

// attnAdapter is one task's LoRA pairs on Wq and Wv: A is r×d, drawn
// N(0, 0.1²); B is d×r and starts at zero, so ΔW starts at zero.
type attnAdapter struct {
	aq, bq, av, bv param
}

// params lists the adapter's four trainable matrices.
func (ad *attnAdapter) params() []*param {
	return []*param{&ad.aq, &ad.bq, &ad.av, &ad.bv}
}

// attnTask holds a task's ground truth: perturbed Wq/Wv used to generate
// targets through the same attention computation.
type attnTask struct {
	wqT, wvT *tensor.Matrix
	rng      *rand.Rand
}

// AttentionTrainer co-trains per-task q/v adapters over one frozen
// attention layer.
type AttentionTrainer struct {
	cfg        AttentionConfig
	wq, wk, wv *tensor.Matrix // frozen projections, held once for every task
	frozen     uint64         // digest of wq, wk, wv at construction
	adapters   []*attnAdapter
	tasks      []*attnTask
}

// NewAttentionTrainer builds the trainer.
func NewAttentionTrainer(cfg AttentionConfig, nTasks int, rng *rand.Rand) (*AttentionTrainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nTasks <= 0 {
		return nil, fmt.Errorf("train: need at least one task, got %d", nTasks)
	}
	std := 1 / math.Sqrt(float64(cfg.DModel))
	at := &AttentionTrainer{
		cfg: cfg,
		wq:  tensor.New(cfg.DModel, cfg.DModel).Randn(rng, std),
		wk:  tensor.New(cfg.DModel, cfg.DModel).Randn(rng, std),
		wv:  tensor.New(cfg.DModel, cfg.DModel).Randn(rng, std),
	}
	at.frozen = digest(at.wq, at.wk, at.wv)
	lowRank := func(d int, s float64) *tensor.Matrix {
		u := tensor.New(d, cfg.Rank).Randn(rng, s)
		v := tensor.New(cfg.Rank, d).Randn(rng, s)
		out := tensor.New(d, d)
		tensor.MatMul(out, u, v)
		return out
	}
	for i := 0; i < nTasks; i++ {
		at.adapters = append(at.adapters, &attnAdapter{
			aq: newParam(tensor.New(cfg.Rank, cfg.DModel).Randn(rng, 0.1)),
			bq: newParam(tensor.New(cfg.DModel, cfg.Rank)),
			av: newParam(tensor.New(cfg.Rank, cfg.DModel).Randn(rng, 0.1)),
			bv: newParam(tensor.New(cfg.DModel, cfg.Rank)),
		})
		wqT := at.wq.Clone()
		wqT.AddScaled(lowRank(cfg.DModel, 0.2), 1)
		wvT := at.wv.Clone()
		wvT.AddScaled(lowRank(cfg.DModel, 0.2), 1)
		at.tasks = append(at.tasks, &attnTask{
			wqT: wqT, wvT: wvT,
			rng: rand.New(rand.NewSource(rng.Int63())),
		})
	}
	return at, nil
}

// digest hashes the bits of ms, so Frozen tells a moved weight without a
// second copy of the base.
func digest(ms ...*tensor.Matrix) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, m := range ms {
		for _, x := range m.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// NumTasks returns the number of co-trained tasks.
func (at *AttentionTrainer) NumTasks() int { return len(at.adapters) }

// Frozen reports whether all three frozen projections are bit-identical
// to their initial values.
func (at *AttentionTrainer) Frozen() bool {
	return digest(at.wq, at.wk, at.wv) == at.frozen
}

// attend computes softmax(QᵀK/√d) row-wise for X (DModel×Seq):
// Q = Wq'·X, K = Wk·X, V = Wv'·X; output O = V·Pᵀ where P[i][j] is the
// attention of position i over position j.
func attend(q, k, v *tensor.Matrix) (o, p *tensor.Matrix) {
	d := float64(q.Rows)
	seq := q.Cols
	// scores[i][j] = q_i · k_j / sqrt(d)
	scores := tensor.New(seq, seq)
	tensor.MatMulTA(scores, q, k)
	scores.Scale(1 / math.Sqrt(d))
	// Row-wise softmax.
	p = tensor.New(seq, seq)
	for i := 0; i < seq; i++ {
		row := scores.Data[i*seq : (i+1)*seq]
		m := row[0]
		for _, x := range row {
			if x > m {
				m = x
			}
		}
		sum := 0.0
		for j, x := range row {
			e := math.Exp(x - m)
			p.Data[i*seq+j] = e
			sum += e
		}
		for j := range row {
			p.Data[i*seq+j] /= sum
		}
	}
	// o[:,i] = Σ_j p[i][j] v[:,j]  ⇔  O = V·Pᵀ.
	o = tensor.New(v.Rows, seq)
	tensor.MatMulTB(o, v, p)
	return o, p
}

// forward runs the adapted attention for task i on input X (DModel×Seq).
func (at *AttentionTrainer) forward(i int, x *tensor.Matrix) (o, p, k, v *tensor.Matrix) {
	ad := at.adapters[i]
	cfg := at.cfg
	scale := cfg.Alpha / float64(cfg.Rank)
	proj := func(w, a, b *tensor.Matrix) *tensor.Matrix {
		out := tensor.New(cfg.DModel, x.Cols)
		tensor.MatMul(out, w, x)
		ax := tensor.New(cfg.Rank, x.Cols)
		tensor.MatMul(ax, a, x)
		bax := tensor.New(cfg.DModel, x.Cols)
		tensor.MatMul(bax, b, ax)
		out.AddScaled(bax, scale)
		return out
	}
	q := proj(at.wq, ad.aq.w, ad.bq.w)
	k = tensor.New(cfg.DModel, x.Cols)
	tensor.MatMul(k, at.wk, x)
	v = proj(at.wv, ad.av.w, ad.bv.w)
	o, p = attend(q, k, v)
	return o, p, k, v
}

// loss returns task i's MSE against the target attention output.
func (at *AttentionTrainer) loss(i int, x, target *tensor.Matrix) float64 {
	o, _, _, _ := at.forward(i, x)
	return tensor.MSE(o, target)
}

// sample draws (x, target) where the target runs the task's perturbed
// q/v projections through the same attention.
func (at *AttentionTrainer) sample(i int) (x, target *tensor.Matrix) {
	cfg := at.cfg
	tk := at.tasks[i]
	x = tensor.New(cfg.DModel, cfg.SeqLen).Randn(tk.rng, 1)
	q := tensor.New(cfg.DModel, cfg.SeqLen)
	tensor.MatMul(q, tk.wqT, x)
	k := tensor.New(cfg.DModel, cfg.SeqLen)
	tensor.MatMul(k, at.wk, x)
	v := tensor.New(cfg.DModel, cfg.SeqLen)
	tensor.MatMul(v, tk.wvT, x)
	target, _ = attend(q, k, v)
	return x, target
}

// backward runs task i's forward pass on (x, target), writes the gradient
// of its loss into each of the task's adapter matrices' g, and returns the
// loss. The frozen projections get no gradient.
//
// The value path is O = V·Pᵀ; the query path flows through the softmax
// Jacobian, dscores = P ⊙ (dP − rowsum(dP⊙P)).
func (at *AttentionTrainer) backward(i int, x, target *tensor.Matrix) float64 {
	cfg := at.cfg
	ad := at.adapters[i]
	seq := x.Cols
	o, p, k, v := at.forward(i, x)

	// dL/dO.
	do := tensor.New(cfg.DModel, seq)
	tensor.Sub(do, o, target)
	do.Scale(2 / float64(cfg.DModel*seq))

	// Value path: O = V·Pᵀ ⇒ dV = dO·P, dPᵀ = Vᵀ·dO ⇒ dP = dOᵀ·V.
	dv := tensor.New(cfg.DModel, seq)
	tensor.MatMul(dv, do, p)
	dp := tensor.New(seq, seq)
	tensor.MatMulTA(dp, do, v)

	// Softmax backward: ds = P ⊙ (dP − rowsum(dP⊙P)).
	ds := tensor.New(seq, seq)
	for r := 0; r < seq; r++ {
		dot := 0.0
		for c := 0; c < seq; c++ {
			dot += dp.Data[r*seq+c] * p.Data[r*seq+c]
		}
		for c := 0; c < seq; c++ {
			ds.Data[r*seq+c] = p.Data[r*seq+c] * (dp.Data[r*seq+c] - dot)
		}
	}
	ds.Scale(1 / math.Sqrt(float64(cfg.DModel)))

	// Query path: scores = QᵀK/√d ⇒ dQ = K·dsᵀ.
	dq := tensor.New(cfg.DModel, seq)
	tensor.MatMulTB(dq, k, ds)

	at.adapterGrads(x, dq, &ad.aq, &ad.bq)
	at.adapterGrads(x, dv, &ad.av, &ad.bv)
	return tensor.MSE(o, target)
}

// adapterGrads writes the adapter gradients of Y = W·X + s·B·(A·X) given
// dY: gradB = s·dY·(A·X)ᵀ, gradA = s·Bᵀ·dY·Xᵀ.
func (at *AttentionTrainer) adapterGrads(x, dy *tensor.Matrix, a, b *param) {
	cfg := at.cfg
	scale := cfg.Alpha / float64(cfg.Rank)
	ax := tensor.New(cfg.Rank, x.Cols)
	tensor.MatMul(ax, a.w, x)
	tensor.MatMulTB(b.g, dy, ax)
	b.g.Scale(scale)
	btdy := tensor.New(cfg.Rank, x.Cols)
	tensor.MatMulTA(btdy, b.w, dy)
	tensor.MatMulTB(a.g, btdy, x)
	a.g.Scale(scale)
}

// Step trains every task on a fresh sequence: one backward pass and one
// Adam step per adapter matrix. It returns each task's pre-update loss.
func (at *AttentionTrainer) Step() []float64 {
	losses := make([]float64, len(at.adapters))
	for i, ad := range at.adapters {
		x, target := at.sample(i)
		losses[i] = at.backward(i, x, target)
		for _, p := range ad.params() {
			p.adam(at.cfg.LR)
		}
	}
	return losses
}

// Train runs steps and returns mean early/late losses per task.
func (at *AttentionTrainer) Train(steps int) (early, late []float64) {
	n := len(at.adapters)
	early = make([]float64, n)
	late = make([]float64, n)
	q := steps / 4
	if q == 0 {
		q = 1
	}
	for s := 0; s < steps; s++ {
		losses := at.Step()
		for i, l := range losses {
			if s < q {
				early[i] += l / float64(q)
			}
			if s >= steps-q {
				late[i] += l / float64(q)
			}
		}
	}
	return early, late
}

// GradCheck holds the gradients Step's backward pass writes for task i,
// on every adapter matrix, to central finite differences of the loss on a
// fresh sample, and returns the largest relative error.
func (at *AttentionTrainer) GradCheck(i int, eps float64) float64 {
	x, target := at.sample(i)
	at.backward(i, x, target)
	maxRel := 0.0
	for _, p := range at.adapters[i].params() {
		for idx, g := range p.g.Data {
			orig := p.w.Data[idx]
			p.w.Data[idx] = orig + eps
			lp := at.loss(i, x, target)
			p.w.Data[idx] = orig - eps
			lm := at.loss(i, x, target)
			p.w.Data[idx] = orig
			fd := (lp - lm) / (2 * eps)
			denom := 1e-8 + math.Abs(fd) + math.Abs(g)
			if rel := math.Abs(fd-g) / denom; rel > maxRel {
				maxRel = rel
			}
		}
	}
	return maxRel
}
