package bdltree

import (
	"math"
	"math/bits"

	"pargeo/internal/geom"
	"pargeo/internal/rng"
)

// filterBitsPerRow sizes a level's membership filter. With four bits set
// per row in one 64-bit word, 8 bits a row pass 3.3 % of misses (a word's
// load varies around its mean, so blocking costs more than a plain Bloom
// filter's 2.4 %); 10 bits a row pass 1.8–1.9 % for 1.25 bytes a row.
const filterBitsPerRow = 10

// filter is a blocked Bloom filter over a level's rows (one 64-bit block
// per key, Putze, Sanders & Singler, WEA 2007): a row's coordinates hash to
// one word and four bits in it, so a probe is one hash and one load. A
// batch erase probes it before locating a candidate in the level, and
// skips the level when a bit is missing; every level is a sample of the
// whole shard, so the candidate sits in one level at most and the others'
// point locations would all miss. A filter has no false negatives — every
// row's bits are set at build and tombstones never clear them — and passes
// about 2 % of the points it was not built over. A nil filter passes
// everything.
type filter []uint64

// newFilter builds the filter over every row of pts.
func newFilter(pts geom.Points) filter {
	f := make(filter, (pts.Len()*filterBitsPerRow+63)/64)
	for lo := 0; lo < len(pts.Data); lo += pts.Dim {
		w, m := f.slot(rowHash(pts.Data[lo : lo+pts.Dim]))
		f[w] |= m
	}
	return f
}

// mayHold reports whether a row equal to q (==, as kdtree.MatchRows
// compares) may be one of the rows the filter was built over.
func (f filter) mayHold(q []float64) bool {
	if f == nil {
		return true
	}
	w, m := f.slot(rowHash(q))
	return f[w]&m == m
}

// slot returns the word index and the four-bit mask of a row hash h: the
// word is h's multiply-high reduction to len(f), the bits its four low
// 6-bit fields.
func (f filter) slot(h uint64) (int, uint64) {
	w, _ := bits.Mul64(h, uint64(len(f)))
	return int(w), 1<<(h&63) | 1<<(h>>6&63) | 1<<(h>>12&63) | 1<<(h>>18&63)
}

// rowHash mixes a row's float64 coordinate bits into 64 bits: a multiply
// and a rotation per coordinate, then the SplitMix64 finalizer. -0 hashes
// as +0, because the two compare equal (v + 0 is +0 for either zero and v
// for any other v); a NaN hashes anywhere, since it equals nothing. The
// rotation carries each product's high bits back down and the finalizer
// spreads them to every output bit, so integer-valued coordinates, whose
// low mantissa bits are all zero, still reach every word and bit.
func rowHash(row []float64) uint64 {
	var h uint64
	for _, v := range row {
		h = bits.RotateLeft64((h^math.Float64bits(v+0))*0xbf58476d1ce4e5b9, 32)
	}
	return rng.Hash64(h)
}
