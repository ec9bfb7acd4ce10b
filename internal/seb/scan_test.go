package seb

import (
	"fmt"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
)

// scanAlgos are the two algorithms built on the in-place scan.
var scanAlgos = []struct {
	name string
	f    func(pts geom.Points, st *runStats) Ball
}{
	{"Sampling", func(p geom.Points, st *runStats) Ball { return sampling(p, 7, st) }},
	{"OrthantScan", orthantScan},
}

// checkAgainstWelzl runs both scan algorithms on pts and requires the
// sequential Welzl ball: radius within 1e-9 relative and every point
// inside. It returns the runs' counts.
func checkAgainstWelzl(t *testing.T, name string, pts geom.Points) []runStats {
	t.Helper()
	ref := WelzlSequential(pts, 1, Heuristics{MTF: true})
	var out []runStats
	for _, alg := range scanAlgos {
		var st runStats
		got := alg.f(pts, &st)
		checkEnclosing(t, pts, got, name+"/"+alg.name)
		if relDiff(got.SqRadius, ref.SqRadius) > 1e-9 {
			t.Fatalf("%s/%s: r²=%.17g, Welzl %.17g", name, alg.name, got.SqRadius, ref.SqRadius)
		}
		out = append(out, st)
	}
	return out
}

func TestScanMatchesWelzlSizes(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 4095, 4097} {
		checkAgainstWelzl(t, fmt.Sprintf("n=%d", n), generators.UniformCube(n, 5, uint64(n)))
	}
}

func TestScanMatchesWelzlRepeatedPoints(t *testing.T) {
	same := geom.NewPoints(5000, 3)
	for i := 0; i < same.Len(); i++ {
		same.Set(i, []float64{1, -2, 3})
	}
	checkAgainstWelzl(t, "identical", same)

	// Every point of a 3-D set three times over, the copies far apart in
	// the input.
	base := generators.InSphere(2000, 3, 5)
	dup := geom.NewPoints(3*base.Len(), 3)
	for i := 0; i < dup.Len(); i++ {
		dup.Set(i, base.At(i%base.Len()))
	}
	checkAgainstWelzl(t, "duplicated", dup)
}

func TestScanMatchesWelzl8D(t *testing.T) {
	// 8-D: 2^8 orthants would be 256; the scan caps them at 2^6.
	checkAgainstWelzl(t, "8d", generators.UniformCube(6000, 8, 8))
}

func TestScanViolatorOverflow(t *testing.T) {
	// On a sphere nearly every point is on the boundary, so scans find far
	// more than maxViolators points outside and take the extrema step.
	pts := generators.OnSphere(20000, 5, 9)
	for k, st := range checkAgainstWelzl(t, "onsphere", pts) {
		if st.overflows == 0 {
			t.Fatalf("%s: no scan overflowed maxViolators (%+v)", scanAlgos[k].name, st)
		}
	}
}

func TestSamplingReadsInputTwice(t *testing.T) {
	// After the sampling phase, one full scan collects the few violators
	// and the second verifies: the input is read twice. (A third scan
	// happens when the new ball lets a point that was inside escape; on
	// other seeds of this shape that is about one run in seven.) This is
	// BenchmarkSampling's input, and paper-batch's seb stage at seed 1.
	pts := generators.UniformCube(1_000_000, 5, 3)
	var st runStats
	b := sampling(pts, 1, &st)
	if st.fullPasses > 2 {
		t.Fatalf("%d full passes (%+v)", st.fullPasses, st)
	}
	checkEnclosing(t, pts, b, "u5")
}
