package experiments

// Seed derivation for sweeps and campaigns.
//
// Every generated task set gets its own RNG seed derived from
// (campaign seed, point index, set index) through a splitmix64-style
// mixer. This is the determinism contract the orchestrator's parallel
// runs rest on: because no two work units share generator state, the
// contents of set j of point p depend only on the campaign seed and the
// pair (p, j) — never on which worker ran the point, how many workers
// executed the campaign, how many sets a point has, or how many methods
// analyze each set. Earlier revisions threaded one rand source through a
// whole sweep, so growing any dimension of the experiment perturbed
// every set generated after it; the regression tests in seed_test.go pin
// the independence.

// seedMix is the splitmix64 finalizer: a bijective avalanche mix.
func seedMix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// SeedFor derives the generator seed of one task set: set `set` of sweep
// point `point` under the given campaign seed.
func SeedFor(campaignSeed int64, point, set int) int64 {
	x := seedMix(uint64(campaignSeed) + 0x9e3779b97f4a7c15)
	x = seedMix(x ^ (uint64(uint32(point)) + 0xd1b54a32d192ed03))
	x = seedMix(x ^ (uint64(uint32(set)) + 0x8cb92ba72f3d8dd7))
	return int64(x)
}
