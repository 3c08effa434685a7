package train

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/tensor"
)

var matrixType = reflect.TypeOf((*tensor.Matrix)(nil))

// words counts the float64 words of the distinct matrices reachable from
// v, each buffer once however many fields point at it. The trainer's
// target generators (its tasks field) stand in for a task's dataset, not
// its model state, and are skipped.
func words(v reflect.Value, seen map[uintptr]bool) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		if v.Type() == matrixType {
			return v.Elem().FieldByName("Data").Len()
		}
		return words(v.Elem(), seen)
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			if v.Type() == reflect.TypeOf(AttentionTrainer{}) && v.Type().Field(i).Name == "tasks" {
				continue
			}
			n += words(v.Field(i), seen)
		}
		return n
	case reflect.Slice, reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += words(v.Index(i), seen)
		}
		return n
	}
	return 0
}

// TestTrainerMatchesLoRAMemoryModel ties the trainer to the three numbers
// internal/lora charges the scheduler with, for a one-layer model of the
// trainer's width and rank:
//   - trainable parameters per task = AdapterParams(r), adapters on Q and V;
//   - words per trainable parameter (weight, gradient, Adam m and v, counted
//     from the trainer's buffers) = lora's bytes per adapter parameter / 4;
//   - model state (frozen weights, adapters, optimizer state) grows by one
//     task's adapter state per task, and what is left, the frozen Wq, Wk
//     and Wv, is held once for every n: the base is shared (Figure 2).
//
// The trainer computes in float64, so this checks how many words training
// keeps per parameter, not that each is 4 bytes wide: the fp32 width is
// lora's assumption.
func TestTrainerMatchesLoRAMemoryModel(t *testing.T) {
	cfg := DefaultAttentionConfig()
	m := lora.ModelConfig{Name: "toy", Layers: 1, Hidden: cfg.DModel, Heads: 1, Vocab: 1, SeqLen: cfg.SeqLen}
	params := int(m.AdapterParams(cfg.Rank))
	// lora's per-task memory at batch 0 is adapter state plus a fixed
	// runtime term; rank 0 leaves the runtime term alone.
	bytesPerParam := (lora.TaskMemoryGB(m, cfg.Rank, 0) - lora.TaskMemoryGB(m, 0, 0)) * 1e9 / float64(params)
	wordsPerParam := int(math.Round(bytesPerParam / 4))
	taskWords := wordsPerParam * params
	baseWords := 3 * cfg.DModel * cfg.DModel
	t.Logf("lora: %d adapter parameters a task at r=%d, %.2f B each = %d words; frozen base %d words",
		params, cfg.Rank, bytesPerParam, wordsPerParam, baseWords)

	prev := 0
	for n := 1; n <= 4; n++ {
		at, err := NewAttentionTrainer(cfg, n, rand.New(rand.NewSource(31)))
		if err != nil {
			t.Fatal(err)
		}
		at.Step()
		for i, ad := range at.adapters {
			got := 0
			for _, p := range ad.params() {
				got += len(p.w.Data)
			}
			if got != params {
				t.Fatalf("n=%d task %d: %d trainable parameters, lora.AdapterParams(%d) = %d", n, i, got, cfg.Rank, params)
			}
			if w := words(reflect.ValueOf(ad), map[uintptr]bool{}); w != taskWords {
				t.Fatalf("n=%d task %d: %d words for %d parameters (%.2f a parameter), lora charges %.2f B = %d words",
					n, i, w, params, float64(w)/float64(params), bytesPerParam, wordsPerParam)
			}
		}
		total := words(reflect.ValueOf(at), map[uintptr]bool{})
		if n > 1 && total-prev != taskWords {
			t.Fatalf("task %d adds %d words of model state, want one task's adapter state, %d", n, total-prev, taskWords)
		}
		if base := total - n*taskWords; base != baseWords {
			t.Fatalf("n=%d: %d words of model state outside the adapters, want the frozen Wq, Wk, Wv once (%d)", n, base, baseWords)
		}
		prev = total
	}
}
