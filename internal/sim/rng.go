package sim

import "math"

// RNG is a deterministic random stream (xoshiro256** seeded via
// splitmix64). Each stochastic component of a simulation should own a
// named stream (Engine.RNG) so adding a component never perturbs the
// draws seen by others.
type RNG struct {
	s [4]uint64

	haveGauss bool
	gauss     float64
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// streamSeed derives a sub-seed for a named stream from the engine seed.
func streamSeed(seed uint64, name string) uint64 {
	// FNV-1a over the name, mixed with the seed through splitmix64.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	x := seed ^ h
	return splitmix64(&x)
}

// SubSeed derives the seed of an independent substream from a root seed
// and a cell key — the splittable scheme parallel experiment sweeps use.
// Every independent simulation cell (one placement, one Monte-Carlo
// replication, one collective row) seeds its own engine with
// SubSeed(root, key), so the draws a cell sees depend only on (root,
// key), never on which worker ran it or in what order. Distinct keys
// yield statistically independent streams; the same (root, key) pair is
// always the same stream.
func SubSeed(seed uint64, key string) uint64 {
	// FNV-1a over the key for dispersion across key strings, then two
	// splitmix64 rounds interleaving the root seed so that near-equal
	// seeds (1, 2, 3, ...) and near-equal keys ("cell0", "cell1", ...)
	// both avalanche into unrelated states.
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	x := seed
	s := splitmix64(&x)
	x = s ^ h
	s = splitmix64(&x)
	return splitmix64(&x) ^ s>>32
}

// NewCellRNG returns the substream for one sweep cell: shorthand for
// NewRNG(SubSeed(seed, key)).
func NewCellRNG(seed uint64, key string) *RNG {
	return NewRNG(SubSeed(seed, key))
}

// NewRNG returns a stream seeded from seed. Equal seeds give equal streams.
// It inlines, so a caller that copies *NewRNG(seed) into a value it holds
// allocates nothing.
func NewRNG(seed uint64) *RNG {
	r := seeded(seed)
	return &r
}

// seeded is the stream seeded from seed, by value.
func seeded(seed uint64) RNG {
	var r RNG
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits (xoshiro256**).
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

// Float64 returns a uniform draw in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n)) // bias negligible for n << 2^64
}

// Perm returns a random permutation of [0, n).
//
//detlint:allow unused -- the mpi property tests and pevpm's ordering tests shuffle their inputs with it
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// NormFloat64 returns a standard normal draw (polar Box-Muller).
func (r *RNG) NormFloat64() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.haveGauss = true
		return u * f
	}
}

// LogNormal returns a draw whose logarithm is normal with the given
// location mu and scale sigma (both in log space).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
