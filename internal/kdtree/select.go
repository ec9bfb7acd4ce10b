package kdtree

// rowSpan is a node's rows while the tree is built: dim coordinates per
// row in data and one label per row in lab, starting at row lo of the
// tree. The build partitions a span in place by swapping whole rows, so a
// node's box, its split and its leaf slab all read contiguous memory.
type rowSpan struct {
	data []float64
	lab  []int32
	dim  int
	lo   int32
}

// cut splits s before its row m.
func (s rowSpan) cut(m int32) (rowSpan, rowSpan) {
	at := int(m) * s.dim
	return rowSpan{s.data[:at], s.lab[:m], s.dim, s.lo},
		rowSpan{s.data[at:], s.lab[m:], s.dim, s.lo + m}
}

// key returns coordinate c of row i.
func (s rowSpan) key(i, c int) float64 { return s.data[i*s.dim+c] }

// swapRows exchanges rows i and j of data (dim coordinates a row) and lab.
func swapRows(data []float64, lab []int32, dim, i, j int) {
	a := data[i*dim : i*dim+dim]
	b := data[j*dim : j*dim+dim]
	for c := range a {
		a[c], b[c] = b[c], a[c]
	}
	lab[i], lab[j] = lab[j], lab[i]
}

// nthElement reorders the rows so row kth holds the row of rank kth by
// coordinate c (quickselect with median-of-three pivots; ties land on
// either side). Each scan stops at a row that is not strictly on its side
// of the pivot and every round swaps at least once, so the range shrinks
// every round and the selection ends whatever the keys, NaN included.
func (s rowSpan) nthElement(kth, c int) {
	// The loops index plain locals: a method call on s per key would copy
	// the span on every probe.
	data, lab, dim := s.data, s.lab, s.dim
	key := data[c:]
	lo, hi := 0, len(lab)
	for hi-lo > 1 {
		mid := (lo + hi - 1) / 2
		if key[mid*dim] < key[lo*dim] {
			swapRows(data, lab, dim, mid, lo)
		}
		if key[(hi-1)*dim] < key[lo*dim] {
			swapRows(data, lab, dim, hi-1, lo)
		}
		if key[(hi-1)*dim] < key[mid*dim] {
			swapRows(data, lab, dim, hi-1, mid)
		}
		pivot := key[mid*dim]
		i, j := lo, hi-1
		for i <= j {
			for key[i*dim] < pivot {
				i++
			}
			for key[j*dim] > pivot {
				j--
			}
			if i <= j {
				swapRows(data, lab, dim, i, j)
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

// partition moves the rows whose coordinate c is below val to the front
// and returns their count. The two scans test one predicate and its
// complement, so between them they consume every row and the pass ends
// even on a NaN coordinate, which is not below val and goes right.
func (s rowSpan) partition(c int, val float64) int {
	data, lab, dim := s.data, s.lab, s.dim
	key := data[c:]
	i, j := 0, len(lab)-1
	for i <= j {
		for i <= j && key[i*dim] < val {
			i++
		}
		for i <= j && !(key[j*dim] < val) {
			j--
		}
		if i < j {
			swapRows(data, lab, dim, i, j)
			i++
			j--
		}
	}
	return i
}

// box sets nd's bounding box to the span's, one coordinate at a time so
// that the running bounds stay in registers. A NaN coordinate fails both
// comparisons and never widens the box.
func (s rowSpan) box(nd *Node) {
	data, dim := s.data, s.dim
	for c := 0; c < dim; c++ {
		mn, mx := inf, -inf
		for i := c; i < len(data); i += dim {
			v := data[i]
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		nd.MinC[c], nd.MaxC[c] = mn, mx
	}
}
