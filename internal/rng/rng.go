// Package rng provides the deterministic pseudo-random number generator
// used by every stochastic component of the simulator (synthetic trace
// generation, address streams, branch outcome synthesis).
//
// The simulator must be bit-reproducible across runs and platforms, and
// independent components must be able to draw from independent streams,
// so rng wraps a SplitMix64 core: cheap, well distributed, and trivially
// splittable by deriving child seeds.
package rng

// Source is a SplitMix64 pseudo-random generator. The zero value is a
// valid generator seeded with 0.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives an independent child Source. The child's stream is a
// deterministic function of the parent state and the salt, so components
// created in a fixed order always see the same streams.
func (s *Source) Split(salt uint64) *Source {
	return New(s.Uint64() ^ (salt * 0x9e3779b97f4a7c15))
}

// State returns the generator's internal state word. Together with
// SetState it lets a stream be started again from a recorded position:
// restoring the word resumes the stream at exactly that point.
func (s *Source) State() uint64 { return s.state }

// SetState overwrites the generator's internal state word.
func (s *Source) SetState(state uint64) { s.state = state }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns 32 uniformly distributed bits.
func (s *Source) Uint32() uint32 {
	return uint32(s.Uint64() >> 32)
}

// Intn returns a uniformly distributed int in [0, n). n must be > 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method.
	v := s.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := -uint64(n) % uint64(n)
		for lo < thresh {
			v = s.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Geometric returns a sample from a geometric distribution with success
// probability p, i.e. the number of failures before the first success
// (support {0, 1, 2, ...}, mean (1-p)/p). p must be in (0, 1].
func (s *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs p in (0,1]")
	}
	if p == 1 {
		return 0
	}
	n := 0
	for !s.Bool(p) {
		n++
		if n > 1<<20 {
			// Defensive bound; unreachable for sane p.
			break
		}
	}
	return n
}

// Pick returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative and sum to a
// positive value.
func (s *Source) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("rng: Pick needs a positive total weight")
	}
	x := s.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}
