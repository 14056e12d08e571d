package sim

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64-seeded xorshift128+). Workload generators use it instead of
// math/rand so that traces are bit-identical across runs and Go versions —
// determinism is what makes the experiment harness and the crash-recovery
// verifier trustworthy.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed int64) *RNG {
	r := &RNG{}
	z := uint64(seed) + 0x9e3779b97f4a7c15
	r.s0 = splitmix(&z)
	r.s1 = splitmix(&z)
	if r.s0 == 0 && r.s1 == 0 {
		r.s1 = 1
	}
	return r
}

func splitmix(z *uint64) uint64 {
	*z += 0x9e3779b97f4a7c15
	x := *z
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint64 returns the next 64-bit value.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns a value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a value in [0, n). n must be positive.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
