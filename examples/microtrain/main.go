// Microtrain: execute the multi-LoRA substrate for real — several tasks
// share one frozen attention layer (Wq, Wk, Wv) and train only their own
// low-rank adapters on the query and value projections with Adam
// (Figures 1 and 2 of the paper), at laptop scale. It exits non-zero if
// training moved the shared base or a backward pass disagrees with finite
// differences.
//
//	go run ./examples/microtrain
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/pdftsp/pdftsp/internal/train"
)

func main() {
	at, err := train.NewAttentionTrainer(train.DefaultAttentionConfig(), 4, rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("co-training 4 LoRA q/v adapters over one shared frozen attention layer")
	for epoch := 0; epoch < 6; epoch++ {
		_, late := at.Train(50)
		fmt.Printf("epoch %d: losses %.4f %.4f %.4f %.4f\n", epoch, late[0], late[1], late[2], late[3])
	}

	if !at.Frozen() {
		log.Fatal("BUG: the shared base weights moved")
	}
	fmt.Println("\nshared Wq, Wk, Wv: bit-identical to initialization (frozen ✓)")
	for i := 0; i < at.NumTasks(); i++ {
		rel := at.GradCheck(i, 1e-5)
		fmt.Printf("task %d adapter gradients vs finite differences: max rel err %.2e\n", i, rel)
		if rel > 1e-3 {
			log.Fatalf("BUG: task %d's backward pass is off by rel %.2e", i, rel)
		}
	}
}
