// Package lfg reproduces rand.New(rand.NewSource(seed)) without math/rand's
// interfaces: a concrete Source whose draws inline, and the seeded words
// an O(1) reader of the stream's first Tap draws needs.
//
// Go's rand.NewSource is an additive lagged-Fibonacci generator over 607
// words with lag 273. Seeding it runs a Lehmer generator
// s_n = 48271ⁿ·x₀ mod (2³¹−1) for 1,841 steps and sets word i to
// cooked[i] ^ (s₍₂₁₊₃ᵢ₎<<40 ^ s₍₂₂₊₃ᵢ₎<<20 ^ s₍₂₃₊₃ᵢ₎); draw j then returns
// word[333−j] + word[606−j] and overwrites word[333−j]. The first 273
// draws therefore read only words no draw has written, and each of those
// is six modular multiplications away from x₀ (Word).
package lfg

import "math/rand"

// Mod is the Lehmer modulus a seed is reduced by, Len the number of state
// words, and Tap the lag: how many draws read only freshly seeded words.
const (
	Mod = 1<<31 - 1
	Len = 607
	Tap = 273
	mul = 48271
)

// seedWord is the generator's additive constant for one state word and the
// three powers of mul that carry x₀ to the word's Lehmer terms.
type seedWord struct {
	cooked uint64
	pow    [3]uint64
}

var seedWords = recoverSeedWords()

// recoverSeedWords reads the 607 additive constants out of the standard
// library: after 607 draws every state word holds the draw that wrote it,
// undoing the draws newest-first leaves the seeded state, and for seed 1
// the Lehmer terms are the bare powers.
func recoverSeedWords() *[Len]seedWord {
	src := rand.NewSource(1).(rand.Source64)
	feed := func(j int) int { return (2*Len - Tap - 1 - j) % Len } // the word draw j writes
	var vec [Len]uint64
	for j := 0; j < Len; j++ {
		vec[feed(j)] = src.Uint64()
	}
	for j := Len - 1; j >= 0; j-- {
		vec[feed(j)] -= vec[Len-1-j]
	}
	var words [Len]seedWord
	p := uint64(1)
	for n := 1; n <= 20; n++ {
		p = p * mul % Mod
	}
	for i := range words {
		w := &words[i]
		for k := range w.pow {
			p = p * mul % Mod
			w.pow[k] = p
		}
		w.cooked = vec[i] ^ (w.pow[0]<<40 ^ w.pow[1]<<20 ^ w.pow[2])
	}
	return &words
}

// X0 is the Lehmer start rand.NewSource(seed) derives its state from.
func X0(seed int64) uint64 {
	if seed %= Mod; seed < 0 {
		seed += Mod
	} else if seed == 0 {
		return 89482311
	}
	return uint64(seed)
}

// Word is state word i as rand.NewSource seeds it from x0 = X0(seed).
func Word(x0 uint64, i int) uint64 {
	w := &seedWords[i]
	return w.cooked ^ (w.pow[0]*x0%Mod<<40 ^ w.pow[1]*x0%Mod<<20 ^ w.pow[2]*x0%Mod)
}

// Source is rand.New(rand.NewSource(seed)), bit for bit, held by value so
// that it stays on its owner's stack; its draws inline, and a constant
// Intn bound folds into multiplies. buf[m] is draw m of the current block
// of Len: draw n is draw n−607 plus draw n−273, so the first draw past a
// block computes the next one in place and every other draw is a load.
type Source struct {
	buf [Len]uint64
	n   int // draws of buf already handed out
}

// tapOf[m] is where draw m−273 is when draw m is computed (the block
// before's for m < 273); a table is cheaper than a remainder per word.
var tapOf = func() (t [Len]uint16) {
	for m := range t {
		t[m] = uint16((m + Len - Tap) % Len)
	}
	return t
}()

// Seed resets s to the stream of rand.NewSource(seed): seeded word i is
// draw i−333 mod Len of the block before the first.
func (s *Source) Seed(seed int64) {
	x0 := X0(seed)
	for i := range s.buf {
		s.buf[(2*Len-Tap-1-i)%Len] = Word(x0, i)
	}
	s.n = Len
}

// Uint64 is rand.Rand's Uint64.
func (s *Source) Uint64() uint64 {
	if s.n == Len {
		for m, t := range tapOf {
			s.buf[m] += s.buf[t]
		}
		s.n = 0
	}
	s.n++
	return s.buf[s.n-1]
}

// Int63 is rand.Rand's Int63.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Float64 is rand.Rand's Float64.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn is rand.Rand's Intn for n ≤ 2³¹−1: the top 31 bits of an Int63,
// redrawn past the last whole multiple of n (a power of two has none).
func (s *Source) Intn(n int) int {
	if uint(n-1) >= Mod {
		panic("lfg: Intn argument outside [1, 2³¹−1]")
	}
	for {
		if v := uint32(s.Uint64() << 1 >> 33); v <= Mod-(1<<31)%uint32(n) {
			return int(v % uint32(n))
		}
	}
}
