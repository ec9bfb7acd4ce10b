package seb

import (
	"testing"

	"pargeo/internal/generators"
)

var sinkBall Ball

// BenchmarkSampling times paper-batch's seb stage: Sampling over 1 M
// uniform 5-D points. full_passes counts the scans of the whole input, and
// sample_frac is the share of the input the sampling phase drew.
func BenchmarkSampling(b *testing.B) {
	pts := generators.UniformCube(1_000_000, 5, 3)
	var st runStats
	for b.Loop() {
		st = runStats{}
		sinkBall = sampling(pts, 1, &st)
	}
	b.ReportMetric(float64(st.fullPasses), "full_passes")
	b.ReportMetric(float64(st.sampled)/float64(pts.Len()), "sample_frac")
}
