package main

// Streams of the workload seed. Each use of the seed draws from its own
// stream, so adding a use never shifts the values another use gets.
const (
	streamDesign uint64 = iota + 1
	streamPlacer
	streamEcoDesign
	streamEcoPlacer
	streamEcoOrder
	streamEcoPerturb
)

// subSeed derives a positive seed for one use of the workload seed; parts
// name the stream and any indices within it.
func subSeed(seed int64, parts ...uint64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x = splitmix(x ^ splitmix(p))
	}
	if s := int64(x >> 1); s != 0 {
		return s
	}
	return 1
}

// splitmix is the SplitMix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
