// Package walk implements the reverse √c-discounted random walk (the √c-walk
// of the PRSim paper) together with a small, fast, deterministic random number
// generator used by every randomized algorithm in this repository.
//
// A √c-walk from node u traverses the graph backwards: at each step it
// terminates at the current node with probability 1-√c and otherwise moves to
// a uniformly random in-neighbor. If the current node has no in-neighbors the
// walk dies without terminating (its remaining probability mass is lost, which
// matches the ℓ-hop RPPR recurrence of the paper).
package walk

import "math/bits"

// RNG is a deterministic xoshiro256**-style generator. It is not safe for
// concurrent use; clone one per goroutine with Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64 so that similar
// seeds still yield uncorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes the generator in place, exactly as if it had been
// freshly created with NewRNG(seed). It lets long-lived workers reuse one
// generator across queries without allocating.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// Avoid the all-zero state, which is a fixed point.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// Split derives an independent generator from the current one. The parent
// stream advances by one value.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1); it never returns exactly 0,
// which the Variance Bounded Backward Walk needs when it divides by r.
func (r *RNG) Float64Open() float64 {
	for {
		f := r.Float64()
		if f > 0 {
			return f
		}
	}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("walk: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling. bits.Mul64 compiles to
	// one widening-multiply instruction, and this is the innermost operation
	// of every walk step.
	v := r.Uint64()
	hi, lo := bits.Mul64(v, uint64(n))
	if lo < uint64(n) {
		threshold := (-uint64(n)) % uint64(n)
		for lo < threshold {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
