// Package rng provides deterministic, splittable pseudo-random number
// generation for the SparkXD simulators.
//
// Every stochastic component in the repository (spike encoders, weight
// initialization, weak-cell placement, error injection) draws from an
// explicit *Stream so that experiments are reproducible bit-for-bit and
// independent sub-experiments do not perturb each other's randomness.
//
// The core generator is xoshiro256**, seeded through SplitMix64 as
// recommended by its authors. Sub-streams are derived by hashing a label
// into the parent seed, which gives statistically independent streams
// without any shared mutable state.
package rng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding and for deriving sub-stream seeds.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a deterministic pseudo-random stream (xoshiro256**).
// The zero value is not usable; construct with New or Derive.
type Stream struct {
	s0, s1, s2, s3 uint64

	// cached second normal variate for the Box-Muller transform
	haveGauss bool
	gauss     float64
}

// New returns a Stream seeded from the given 64-bit seed.
func New(seed uint64) *Stream {
	st := seed
	r := &Stream{}
	r.s0 = splitMix64(&st)
	r.s1 = splitMix64(&st)
	r.s2 = splitMix64(&st)
	r.s3 = splitMix64(&st)
	return r
}

// fnv1a hashes a label into 64 bits (FNV-1a), used for sub-stream derivation.
func fnv1a(label string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	return h
}

// Derive returns a new independent Stream obtained by mixing the given
// label into this stream's identity. Deriving the same label twice yields
// identical streams; different labels yield statistically independent ones.
// Derive does not advance the parent stream.
func (r *Stream) Derive(label string) *Stream {
	seed := r.s0 ^ (r.s1 << 1) ^ fnv1a(label)
	return New(seed)
}

// DeriveIndex is Derive for integer labels, convenient in loops.
func (r *Stream) DeriveIndex(label string, idx int) *Stream {
	seed := r.s0 ^ (r.s1 << 1) ^ fnv1a(label) ^ (0x9e3779b97f4a7c15 * uint64(idx+1))
	return New(seed)
}

// SeedIdentity returns the two state words Derive and DeriveIndex mix
// into sub-stream seeds. Two streams with equal SeedIdentity derive
// identical sub-streams for every (label, index), so callers can use it
// to key caches of derivation-only work — e.g. spike trains encoded from
// per-sample derived streams — without consuming any stream state.
func (r *Stream) SeedIdentity() [2]uint64 { return [2]uint64{r.s0, r.s1} }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *Stream) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul128(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + hiPart + (t >> 32)
	return hi, lo
}

// Int63n returns a uniformly distributed int64 in [0, n). It panics if n <= 0.
func (r *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	for {
		v := int64(r.Uint64() >> 1)
		if v < (1<<62)/n*n || n&(n-1) == 0 {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *Stream) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Bernoulli returns true with probability p.
func (r *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// BernoulliThreshold returns the integer threshold th for which
// Uint64()>>11 < th holds exactly when Float64() < p. Float64 is k/2⁵³
// for the integer k = Uint64()>>11, and scaling by 2⁵³ is exact, so
// k/2⁵³ < p ⟺ k < ⌈p·2⁵³⌉. For p ≤ 0 or NaN (never below) it is 0, and
// for p ≥ 1 (always below) it is 2⁵³.
func BernoulliThreshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// AppendBernoulli draws one Uint64 per element of idx, in order, and
// appends idx[i] to dst when the draw's top 53 bits fall below th[i]
// (see BernoulliThreshold). With th[i] = BernoulliThreshold(p[i]) it
// consumes the stream and decides exactly as one Float64() < p[i] per
// element, with the generator state held in locals for the whole loop.
// It panics if th is shorter than idx.
func (r *Stream) AppendBernoulli(dst, idx []int32, th []uint64) []int32 {
	th = th[:len(idx)]
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	for i, x := range idx {
		// Uint64's step on locals; sharing it through a helper would push
		// Uint64 past the inliner's budget.
		result := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		if result>>11 < th[i] {
			dst = append(dst, x)
		}
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
	return dst
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *Stream) NormFloat64() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.haveGauss = true
	return u * f
}

// Normal returns a normal variate with the given mean and stddev.
func (r *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Stream) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Poisson returns a Poisson variate with the given mean lambda.
// For small lambda it uses Knuth's product method; for large lambda it
// uses the PTRS transformed-rejection method of Hörmann (1993), which is
// O(1) per sample.
func (r *Stream) Poisson(lambda float64) int {
	switch {
	case lambda <= 0:
		return 0
	case lambda < 30:
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		return r.poissonPTRS(lambda)
	}
}

// poissonPTRS implements Hörmann's PTRS algorithm for lambda >= 10.
func (r *Stream) poissonPTRS(lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*math.Log(lambda)-lambda-lg {
			return int(k)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the given swap.
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleK returns k distinct indices uniformly drawn from [0, n) using
// Floyd's algorithm; order is unspecified but deterministic.
// It panics if k > n or k < 0.
func (r *Stream) SampleK(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleK with k out of range")
	}
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := seen[t]; dup {
			t = j
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// Binomial returns a binomial variate Bin(n, p). It uses direct Bernoulli
// summation for small n*min(p,1-p) and a normal approximation with
// continuity correction plus clamping for large counts, which is accurate
// enough for the error-count use here (picking the number of weak cells to
// fail in a region) and O(1).
func (r *Stream) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	if mean < 64 || float64(n)*(1-p) < 64 {
		// Exact-ish via waiting-time (geometric skips) — O(np) expected.
		count := 0
		i := 0
		logq := math.Log1p(-p)
		for {
			u := r.Float64()
			if u <= 0 {
				u = math.SmallestNonzeroFloat64
			}
			skip := int(math.Floor(math.Log(u) / logq))
			i += skip + 1
			if i > n {
				return count
			}
			count++
		}
	}
	sd := math.Sqrt(mean * (1 - p))
	v := math.Round(r.Normal(mean, sd))
	if v < 0 {
		v = 0
	}
	if v > float64(n) {
		v = float64(n)
	}
	return int(v)
}
