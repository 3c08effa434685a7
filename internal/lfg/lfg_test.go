package lfg

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// streamSeeds are the seeds the reduction to [1, 2³¹−2] treats
// differently: zero (replaced by a fixed start), both signs, the modulus
// and its multiples' neighbours, the int64 extremes, and the body seed
// trace derives from seed 1.
var streamSeeds = []int64{
	0, 1, -1, 42, Mod, -Mod, 2*Mod + 3, math.MaxInt64, math.MinInt64, 1 ^ 0x5deece66d,
}

const streamDraws = 100_000

// method is one Source method and its rand.Rand counterpart, each draw
// widened to a uint64 to compare bit for bit.
type method struct {
	name string
	got  func(*Source) uint64
	want func(*rand.Rand) uint64
}

// TestSourceMatchesMathRand holds every method of Source to
// rand.New(rand.NewSource(seed)) over streamDraws draws, far past the
// first refill, so that the seeded words, the block recurrence and each
// method's shaping of a draw are all compared.
func TestSourceMatchesMathRand(t *testing.T) {
	methods := []method{
		{"Int63", func(s *Source) uint64 { return uint64(s.Int63()) }, func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
		{"Uint64", (*Source).Uint64, (*rand.Rand).Uint64},
		{"Float64", func(s *Source) uint64 { return math.Float64bits(s.Float64()) },
			func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
	}
	for _, n := range []int{1, 4, 5, 15001, Mod} {
		methods = append(methods, method{
			"Intn(" + strconv.Itoa(n) + ")",
			func(s *Source) uint64 { return uint64(s.Intn(n)) },
			func(r *rand.Rand) uint64 { return uint64(r.Intn(n)) },
		})
	}
	for _, seed := range streamSeeds {
		for _, m := range methods {
			var s Source
			s.Seed(seed)
			ref := rand.New(rand.NewSource(seed))
			for j := 0; j < streamDraws; j++ {
				if got, want := m.got(&s), m.want(ref); got != want {
					t.Fatalf("seed %d %s draw %d: %#x, math/rand gives %#x", seed, m.name, j, got, want)
				}
			}
		}
	}
}

// TestWordIsSeededState: the first Tap draws of rand.NewSource are sums
// of two freshly seeded words, which is what an O(1) reader of that prefix
// computes from Word.
func TestWordIsSeededState(t *testing.T) {
	for _, seed := range streamSeeds {
		ref := rand.NewSource(seed).(rand.Source64)
		x0 := X0(seed)
		for j := 0; j < Tap; j++ {
			if got, want := Word(x0, Len-Tap-1-j)+Word(x0, Len-1-j), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d from Word: %#x, math/rand gives %#x", seed, j, got, want)
			}
		}
	}
}

// TestSourceReseeds: a Source drawn part-way into a block and seeded again
// starts over.
func TestSourceReseeds(t *testing.T) {
	var s, fresh Source
	s.Seed(3)
	for j := 0; j < Len+5; j++ {
		s.Uint64()
	}
	s.Seed(9)
	fresh.Seed(9)
	for j := 0; j < 2*Len; j++ {
		if got, want := s.Uint64(), fresh.Uint64(); got != want {
			t.Fatalf("draw %d after reseeding: %#x, fresh source gives %#x", j, got, want)
		}
	}
}

func TestIntnRefusesOutOfRange(t *testing.T) {
	var s Source
	s.Seed(1)
	for _, n := range []int{0, -1, Mod + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			s.Intn(n)
		}()
	}
}
