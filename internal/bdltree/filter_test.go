package bdltree

import (
	"fmt"
	"math"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/oracle"
	"pargeo/internal/rng"
)

// filterData are the coordinate families the filter must hash without a
// false negative: ordinary reals, subnormals (with signed zeros among
// them), infinities and small integer grids (many equal rows, signed
// zeros, low mantissa bits all zero).
var filterData = []struct {
	name  string
	coord func(r *rng.Xoshiro256) float64
}{
	{"uniform", func(r *rng.Xoshiro256) float64 { return r.Float64()*200 - 100 }},
	{"subnormal", func(r *rng.Xoshiro256) float64 {
		return float64(r.Intn(9)-4) * math.SmallestNonzeroFloat64 * float64(1+r.Intn(1<<20))
	}},
	{"inf", func(r *rng.Xoshiro256) float64 {
		switch r.Intn(8) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		}
		return r.Float64()
	}},
	{"grid", func(r *rng.Xoshiro256) float64 {
		v := float64(r.Intn(5))
		if r.Intn(2) == 0 {
			v = -v // -0 for a zero
		}
		return v
	}},
}

// negateZeros returns row with every zero's sign flipped: an equal row.
func negateZeros(row []float64) []float64 {
	out := append([]float64(nil), row...)
	for c, v := range out {
		if v == 0 {
			out[c] = math.Copysign(0, -math.Copysign(1, v))
		}
	}
	return out
}

// TestLevelFilterNoFalseNegatives: in ladders of random batch sizes (levels
// on both sides of one leaf and of X, erases leaving tombstones), every
// level of more than one leaf has a filter and no other does, every live
// row — and the same row with its zeros' signs flipped — passes its
// level's filter, and deleting live rows through the ladder removes every
// copy the model holds. A 64 k-row level passes at most 3 % of random
// misses, so the filter cannot decay into one that passes everything.
func TestLevelFilterNoFalseNegatives(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 5, 8} {
		for _, data := range filterData {
			for _, x := range []int{32, 128} {
				label := fmt.Sprintf("d%d/%s/X=%d", dim, data.name, x)
				r := rng.NewXoshiro256(uint64(dim*1000 + x))
				tr := New(dim, Options{BufferSize: x})
				m := &oracle.LiveSet{Dim: dim}
				for _, b := range []int{1, 63, 65, x - 1, x + 1, 3*x + 7, 5} {
					pts := geom.NewPoints(b, dim)
					for i := range pts.Data {
						pts.Data[i] = data.coord(r)
					}
					m.Insert(tr.Insert(pts), pts)
				}
				// Tombstones in most levels, then a check that every copy went.
				victims := geom.Points{Dim: dim}
				for _, l := range tr.levels() {
					if l != nil {
						victims.Data = append(victims.Data, l.Pts.At(r.Intn(len(l.Idx)))...)
					}
				}
				if got, want := tr.erase(victims), m.Remove(victims); got != want {
					t.Fatalf("%s: erase removed %d, model %d", label, got, want)
				}
				filtered := 0
				for i, l := range tr.levels() {
					if l == nil {
						continue
					}
					if multi := len(l.Nodes) > 1; (l.filter != nil) != multi {
						t.Fatalf("%s: level %d of %d rows, %d nodes, has filter %v", label, i-2, len(l.Idx), len(l.Nodes), l.filter != nil)
					}
					if l.filter != nil {
						filtered++
					}
					for row := range l.Idx {
						if l.IsDead(int32(row)) {
							continue
						}
						p := l.Pts.At(row)
						if !l.filter.mayHold(p) || !l.filter.mayHold(negateZeros(p)) {
							t.Fatalf("%s: level %d's filter rejects its live row %v", label, i-2, p)
						}
					}
				}
				if filtered == 0 {
					t.Fatalf("%s: no level has a filter: %v", label, tr.TreeSizes())
				}
				live, _ := tr.Points()
				sample := geom.Points{Dim: dim}
				for i := 0; i < live.Len(); i += 7 {
					sample.Data = append(sample.Data, negateZeros(live.At(i))...)
				}
				if got, want := tr.Delete(sample), m.Remove(sample); got != want || tr.Size() != len(m.IDs) {
					t.Fatalf("%s: Delete removed %d, model %d; %d live, model %d", label, got, want, tr.Size(), len(m.IDs))
				}
			}
		}
	}
	for _, dim := range []int{2, 5} {
		const n, misses = 1 << 16, 100_000
		ids := make([]int32, n)
		l := newLevel(generators.UniformCube(n, dim, 17), ids, ObjectMedian)
		q := generators.UniformCube(misses, dim, 18)
		pass := 0
		for i := 0; i < misses; i++ {
			if l.filter.mayHold(q.At(i)) {
				pass++
			}
		}
		t.Logf("d%d: %d of %d misses pass a %d-row level's filter", dim, pass, misses, n)
		if pass > misses*3/100 {
			t.Errorf("d%d: %d of %d misses pass a %d-row level's filter, want at most 3 %%", dim, pass, misses, n)
		}
	}
}
