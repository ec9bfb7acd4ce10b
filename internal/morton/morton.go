// Package morton implements ParGeo's Morton (Z-order) spatial sort
// (Module 2): quantize each coordinate to b = floor(64/d) bits over the
// data bounding box, interleave the bits into a 64-bit code, and sort by
// code with the parallel radix sort. Morton order places spatially nearby
// points nearby in memory and is the standard preprocessing step for
// spatial locality (the paper's §6.3 discusses its role in the Zd-tree).
package morton

import (
	"pargeo/internal/geom"
	"pargeo/internal/parlay"
)

// BitsPerDim returns the number of quantization bits used per dimension for
// a d-dimensional code.
func BitsPerDim(dim int) int {
	if dim <= 0 {
		panic("morton: non-positive dimension")
	}
	b := 64 / dim
	if b > 21 {
		b = 21 // 3x21 = 63 bits is the conventional cap; finer adds nothing
	}
	return b
}

// quantize maps coordinate v on axis c to its cell index in [0, maxCell]
// (clamped to the box).
func quantize(v float64, box geom.Box, c int, maxCell uint64) uint64 {
	ext := box.Max[c] - box.Min[c]
	if ext <= 0 {
		return 0
	}
	f := (v - box.Min[c]) / ext
	if f < 0 {
		f = 0
	} else if f > 1 {
		f = 1
	}
	cell := uint64(f * float64(maxCell))
	if cell > maxCell {
		cell = maxCell
	}
	return cell
}

// interleave spreads bit k of cell to position k*dim+c of the code: by the
// magic-mask shift sequences in 2 and 3 dimensions (the routing path of a
// sharded engine encodes every update row), bit by bit in the others.
func interleave(code, cell uint64, bits, dim, c int) uint64 {
	switch dim {
	case 2:
		return code | spread2(cell)<<uint(c)
	case 3:
		return code | spread3(cell)<<uint(c)
	}
	return interleaveLoop(code, cell, bits, dim, c)
}

// interleaveLoop is interleave for any dimension, one bit per iteration.
func interleaveLoop(code, cell uint64, bits, dim, c int) uint64 {
	for k := 0; k < bits; k++ {
		code |= ((cell >> uint(k)) & 1) << uint(k*dim+c)
	}
	return code
}

// spread2 moves bit k of a cell of at most 32 bits to bit 2k.
func spread2(x uint64) uint64 {
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	return (x | x<<1) & 0x5555555555555555
}

// spread3 moves bit k of a cell of at most 21 bits to bit 3k.
func spread3(x uint64) uint64 {
	x = (x | x<<32) & 0x001f00000000ffff
	x = (x | x<<16) & 0x001f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	return (x | x<<2) & 0x1249249249249249
}

// Encode computes the Morton code of coordinates p inside box (coordinates
// are clamped to the box).
func Encode(p []float64, box geom.Box) uint64 {
	dim := len(p)
	bits := BitsPerDim(dim)
	maxCell := uint64(1)<<bits - 1
	var code uint64
	for c := 0; c < dim; c++ {
		code = interleave(code, quantize(p[c], box, c, maxCell), bits, dim, c)
	}
	return code
}

// Codes computes the Morton code of every point, in parallel.
func Codes(pts geom.Points) []uint64 {
	n := pts.Len()
	box := geom.BoundingBoxAll(pts)
	codes := make([]uint64, n)
	parlay.For(n, 512, func(i int) {
		codes[i] = Encode(pts.At(i), box)
	})
	return codes
}

// Sort returns the point indices in Morton order (parallel radix sort on
// the codes).
func Sort(pts geom.Points) []int32 {
	n := pts.Len()
	codes := Codes(pts)
	idx := make([]int32, n)
	parlay.For(n, 0, func(i int) { idx[i] = int32(i) })
	parlay.SortPairs(codes, idx)
	return idx
}

// SortPoints returns a new point buffer with the points permuted into
// Morton order.
func SortPoints(pts geom.Points) geom.Points {
	return pts.Gather(Sort(pts))
}
