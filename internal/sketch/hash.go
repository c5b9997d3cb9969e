package sketch

import (
	"encoding/binary"
	"math/bits"
)

// Hash constants, shared by every entry point and the finalizer.
const (
	k0 = 0x9e3779b97f4a7c15 // 2⁶⁴/φ, odd
	k1 = 0xbf58476d1ce4e5b9 // splitmix64 finalizer multipliers
	k2 = 0x94d049bb133111eb
)

// hash128 hashes x into two 64-bit values in a single allocation-free
// pass, consuming 8 bytes per step. The pair seeds Kirsch–Mitzenmacher
// double hashing (idx_j = h1 + j·h2 mod w), which is provably sufficient
// for the CMS error analysis while hashing each key exactly once — the
// technique production sketches (count-min-log, pmc) use instead of d
// independent hash passes.
//
// The two lanes mix the same input stream with different multipliers and
// rotations and are finalized with independent splitmix64 avalanches, so
// the (h1, h2) pair behaves as an independent pair for index derivation.
//
// COMPATIBILITY: this function defines the sketch cell layout. Every
// protocol participant (clients, back-end, simulator) must run the same
// version, or blinded aggregation would sum mismatched cells. Change it
// only in lockstep with a protocol round version bump. The golden
// vectors in golden_test.go pin its output.
func hash128(x []byte, seed uint64) (h1, h2 uint64) {
	h1, h2 = hashInit(seed)
	n := uint64(len(x))
	for len(x) >= 8 {
		h1, h2 = hashRound(h1, h2, binary.LittleEndian.Uint64(x))
		x = x[8:]
	}
	var tail uint64
	for i := 0; i < len(x); i++ {
		tail |= uint64(x[i]) << (8 * uint(i))
	}
	return hashFinal(h1, h2, tail, n)
}

// hashID is hash128 of the 8-byte little-endian encoding of id — the
// canonical CMS key of an ad ID — computed without the byte loop: one
// full round, an empty tail, and n = 8, exactly the steps hash128 takes
// on that key.
func hashID(id, seed uint64) (h1, h2 uint64) {
	h1, h2 = hashInit(seed)
	h1, h2 = hashRound(h1, h2, id)
	return hashFinal(h1, h2, 0, 8)
}

// hashInit derives the two lanes' starting state from the seed.
func hashInit(seed uint64) (h1, h2 uint64) {
	return seed ^ 0xcbf29ce484222325, (seed+1)*k0 ^ 0x2545f4914f6cdd1d
}

// hashRound mixes one full 8-byte word v into both lanes.
func hashRound(h1, h2, v uint64) (uint64, uint64) {
	return bits.RotateLeft64((h1^v)*k1, 31), bits.RotateLeft64((h2+v)*k2, 29) ^ v
}

// hashFinal mixes the zero-padded tail word and the key length n into
// the lanes and avalanches each.
func hashFinal(h1, h2, tail, n uint64) (uint64, uint64) {
	h1 = bits.RotateLeft64((h1^tail)*k1, 31) ^ n
	h2 = bits.RotateLeft64((h2+tail)*k2, 29) + n
	return mix64(h1), mix64(h2 + k0)
}

// mix64 is the splitmix64 finalizer: a bijective avalanche so that every
// input bit affects every output bit.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * k1
	z = (z ^ (z >> 27)) * k2
	return z ^ (z >> 31)
}
