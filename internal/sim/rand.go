package sim

// Rand is a small, fast, deterministic PRNG (xorshift64*). It is used
// instead of math/rand so that the simulation's random streams are fully
// under our control, splittable, and stable across Go releases.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is remapped to
// a fixed non-zero constant because the xorshift state must be non-zero.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Split derives an independent generator from r's current state. The two
// generators produce uncorrelated streams, which lets each subsystem own
// its randomness without perturbing the others when call orders change.
func (r *Rand) Split() *Rand {
	// Mix the state through SplitMix64 so the child stream diverges.
	z := r.Uint64() + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return NewRand(z ^ (z >> 31))
}

// Uint64 returns the next 64 random bits.
//
//xnuma:noalloc
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
//
//xnuma:noalloc
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
//
//xnuma:noalloc
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	// Inverse-CDF sampling; clamp the uniform away from 0 to avoid +Inf.
	u := r.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	return -mean * ln(1-u)
}

// ln is a minimal natural logarithm good to ~1e-9 for the range used by
// Exp (0 < x <= 1). Implemented locally to keep math imports obvious; it
// delegates to the bit-twiddling free series around ln(1+y).
func ln(x float64) float64 {
	// Range-reduce x = m * 2^k with m in [sqrt(1/2), sqrt(2)).
	if x <= 0 {
		panic("sim: ln of non-positive value")
	}
	k := 0
	for x < 0.7071067811865476 {
		x *= 2
		k--
	}
	for x >= 1.4142135623730951 {
		x /= 2
		k++
	}
	y := (x - 1) / (x + 1)
	y2 := y * y
	// atanh series: ln(x) = 2*(y + y^3/3 + y^5/5 + ...)
	sum, term := 0.0, y
	for i := 1; i < 40; i += 2 {
		sum += term / float64(i)
		term *= y2
	}
	const ln2 = 0.6931471805599453
	return 2*sum + float64(k)*ln2
}
