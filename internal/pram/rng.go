package pram

// Schedule-independent randomness. A PRAM algorithm's random choices
// must not depend on the order processors run in, so per-processor
// coins are derived by hashing (seed, round, index) with SplitMix64.
// Two runs with the same seed make identical random choices, and since
// a Machine's schedule is fixed, the same concurrent writes win too.

// SplitMix64 is the standard splitmix64 finalizer.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Coin is a deterministic per-(seed, round, index) random source.
type Coin struct {
	Seed uint64
}

// U64 returns a uniform 64-bit value for the given round and index.
func (c Coin) U64(round, index uint64) uint64 {
	return SplitMix64(c.Seed ^ SplitMix64(round*0x9e3779b97f4a7c15^index))
}

// Float returns a uniform value in [0,1).
func (c Coin) Float(round, index uint64) float64 {
	return float64(c.U64(round, index)>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (c Coin) Bernoulli(round, index uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return c.Float(round, index) < p
}

// Intn returns a uniform value in [0,n).
func (c Coin) Intn(round, index uint64, n int) int {
	if n <= 0 {
		panic("pram: Intn with non-positive n")
	}
	return int(c.U64(round, index) % uint64(n))
}
