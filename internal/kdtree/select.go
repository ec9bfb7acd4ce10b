package kdtree

import "pargeo/internal/geom"

// NthElement reorders idx so idx[kth] holds the element of rank kth by
// coordinate dim (quickselect with median-of-three pivots; ties land on
// either side). Shared by this package's builder and the B2 baseline's.
func NthElement(pts geom.Points, idx []int32, kth int, dim int) {
	lo, hi := 0, len(idx)
	key := func(i int) float64 { return pts.Coord(int(idx[i]), dim) }
	for hi-lo > 1 {
		mid := (lo + hi - 1) / 2
		if key(mid) < key(lo) {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
		if key(hi-1) < key(lo) {
			idx[hi-1], idx[lo] = idx[lo], idx[hi-1]
		}
		if key(hi-1) < key(mid) {
			idx[hi-1], idx[mid] = idx[mid], idx[hi-1]
		}
		pivot := key(mid)
		i, j := lo, hi-1
		for i <= j {
			for key(i) < pivot {
				i++
			}
			for key(j) > pivot {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		if kth <= j {
			hi = j + 1
		} else if kth >= i {
			lo = i
		} else {
			return
		}
	}
}

// PartitionVal reorders idx so elements with coordinate dim < val precede
// the rest, returning the boundary position.
func PartitionVal(pts geom.Points, idx []int32, dim int, val float64) int {
	i, j := 0, len(idx)-1
	for i <= j {
		for i <= j && pts.Coord(int(idx[i]), dim) < val {
			i++
		}
		for i <= j && pts.Coord(int(idx[j]), dim) >= val {
			j--
		}
		if i < j {
			idx[i], idx[j] = idx[j], idx[i]
			i++
			j--
		}
	}
	return i
}
