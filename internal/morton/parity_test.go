package morton

import (
	"fmt"
	"math"
	"testing"

	"pargeo/internal/geom"
	"pargeo/internal/rng"
)

// encodeLoop is Encode with every cell interleaved bit by bit — the
// reference the mask sequences of dims 2 and 3 must reproduce exactly.
func encodeLoop(p []float64, box geom.Box) uint64 {
	dim := len(p)
	bits := BitsPerDim(dim)
	maxCell := uint64(1)<<bits - 1
	var code uint64
	for c := 0; c < dim; c++ {
		code = interleaveLoop(code, quantize(p[c], box, c, maxCell), bits, dim, c)
	}
	return code
}

// TestInterleaveParity: for every dimension, axis and a spread of cells
// (both ends, single bits, random), interleave places the bits where the
// loop does.
func TestInterleaveParity(t *testing.T) {
	r := rng.NewXoshiro256(11)
	for dim := 1; dim <= 8; dim++ {
		bits := BitsPerDim(dim)
		maxCell := uint64(1)<<bits - 1
		cells := []uint64{0, 1, maxCell, maxCell - 1, maxCell >> 1}
		for k := 0; k < bits; k++ {
			cells = append(cells, 1<<k)
		}
		for i := 0; i < 2000; i++ {
			cells = append(cells, r.Next64()&maxCell)
		}
		for c := 0; c < dim; c++ {
			for _, cell := range cells {
				got, want := interleave(0, cell, bits, dim, c), interleaveLoop(0, cell, bits, dim, c)
				if got != want {
					t.Fatalf("dim %d axis %d cell %#x: %#x, loop gives %#x", dim, c, cell, got, want)
				}
			}
		}
	}
}

// FuzzEncodeParity: Encode and EncodeF32 return the loop's code bit for
// bit in dimensions 1–7, for coordinates inside the box, outside it
// (clamped) and non-finite, and for degenerate and non-finite boxes.
func FuzzEncodeParity(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(uint8(1), 0.0, 1.0, 0.25, 0.5, 0.75, 1.0, 0.0, 0.3, 0.9)
	f.Add(uint8(2), -5.0, 5.0, -7.0, 9.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(0), 0.0, 100.0, 99.999, 1e-9, 50.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(1), 0.0, 1.0, nan, inf, -inf, 0.5, 0.5, 0.5, 0.5)
	f.Add(uint8(2), 0.0, 1.0, inf, nan, 1.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(1), 3.0, 3.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(2), -inf, inf, 1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(6), -1e18, 1e18, 1e17, -1e17, 0.0, 1.0, -1.0, 5e17, -5e17)
	f.Fuzz(func(t *testing.T, d uint8, lo, hi, x0, x1, x2, x3, x4, x5, x6 float64) {
		dim := int(d)%7 + 1
		p := []float64{x0, x1, x2, x3, x4, x5, x6}[:dim]
		box := geom.Box{Min: make([]float64, dim), Max: make([]float64, dim)}
		p32 := make([]float32, dim)
		p64 := make([]float64, dim)
		for c := range p {
			box.Min[c], box.Max[c] = lo, hi
			p32[c] = float32(p[c])
			p64[c] = float64(p32[c])
		}
		if got, want := Encode(p, box), encodeLoop(p, box); got != want {
			t.Fatalf("Encode(%v, [%v, %v]) = %#x, loop gives %#x", p, lo, hi, got, want)
		}
		if got, want := EncodeF32(p32, box), encodeLoop(p64, box); got != want {
			t.Fatalf("EncodeF32(%v, [%v, %v]) = %#x, loop gives %#x", p32, lo, hi, got, want)
		}
	})
}

// BenchmarkEncode times one code in the dimensions the engine routes in
// (mask sequences) against the bit loop they replaced, and in a dimension
// that still takes the loop.
func BenchmarkEncode(b *testing.B) {
	r := rng.NewXoshiro256(3)
	for _, dim := range []int{2, 3, 5} {
		box := geom.Box{Min: make([]float64, dim), Max: make([]float64, dim)}
		pts := geom.NewPoints(1024, dim)
		for c := 0; c < dim; c++ {
			box.Max[c] = 1
		}
		for i := range pts.Data {
			pts.Data[i] = r.Float64()
		}
		var sink uint64
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += Encode(pts.At(i%1024), box)
			}
		})
		b.Run(fmt.Sprintf("dim=%d/loop", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += encodeLoop(pts.At(i%1024), box)
			}
		})
		_ = sink
	}
}
