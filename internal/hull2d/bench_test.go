package hull2d

import (
	"testing"

	"pargeo/internal/generators"
)

var sinkHull []int32

// BenchmarkDivideConquer times paper-batch's hull2d stage: DivideConquer
// over 1 M in-sphere 2-D points. survivor_frac is the share of the input
// left after each block's octagon filter.
func BenchmarkDivideConquer(b *testing.B) {
	pts := generators.InSphere(1_000_000, 2, 1)
	for b.Loop() {
		sinkHull = DivideConquer(pts)
	}
	n := pts.Len()
	numBlocks, blockSize := dcBlocks(n)
	survivors := 0
	for lo := 0; lo < n && numBlocks > 1; lo += blockSize {
		s := octagonSplit(pts.Slice(lo, min(lo+blockSize, n)))
		survivors += len(s.lower) + len(s.upper)
	}
	b.ReportMetric(float64(survivors)/float64(n), "survivor_frac")
}
