// Package prng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// The simulator must be reproducible bit-for-bit across runs and platforms:
// replacement policies (the paper's fully-associative TLB/DLB uses random
// replacement), the COMA-F injection forwarding chain, and the synthetic
// workload generators all consume pseudo-random numbers. Using a seeded
// xorshift generator per consumer keeps every experiment deterministic and
// independent of Go's global rand state.
package prng

// Source is a 64-bit xorshift* generator. The zero value is not a valid
// generator; construct one with New.
type Source struct {
	state uint64
}

// New returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func New(seed uint64) *Source {
	s := &Source{state: seed}
	if s.state == 0 {
		s.state = 0x9E3779B97F4A7C15 // golden-ratio constant
	}
	// Scramble the seed so that small consecutive seeds (0, 1, 2, ...)
	// produce uncorrelated streams.
	for i := 0; i < 4; i++ {
		s.Uint64()
	}
	return s
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	x := s.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.state = x
	return x * 0x2545F4914F6CDD1D
}

// Uint32 returns the next 32 pseudo-random bits.
func (s *Source) Uint32() uint32 {
	return uint32(s.Uint64() >> 32)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n with zero n")
	}
	return s.Uint64() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly shuffles n elements using the provided swap
// function, Fisher-Yates style.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
