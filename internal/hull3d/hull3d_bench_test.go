package hull3d

import (
	"fmt"
	"testing"

	"pargeo/internal/core"
	"pargeo/internal/generators"
	"pargeo/internal/geom"
)

func benchSets(n int) []struct {
	name string
	pts  geom.Points
} {
	return []struct {
		name string
		pts  geom.Points
	}{
		{"U", generators.UniformCube(n, 3, 1)},
		{"IS", generators.InSphere(n, 3, 2)},
		{"statue", generators.Statue(n, 3)},
	}
}

func BenchmarkHull3D(b *testing.B) {
	algs := []struct {
		name string
		f    func(geom.Points) [][3]int32
	}{
		{"seqQuickhull", SequentialQuickhull},
		{"quickhull", Quickhull},
		{"randinc", func(p geom.Points) [][3]int32 { return RandInc(p, 1) }},
		{"pseudo", Pseudo},
		{"dnc", DivideConquer},
	}
	for _, s := range benchSets(50000) {
		for _, a := range algs {
			b.Run(fmt.Sprintf("%s/%s", s.name, a.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.f(s.pts)
				}
			})
		}
	}
	// The paper-batch workload's hull3d stage (benchmark/, seed 1): Pseudo
	// over 100 k in-sphere points, and apart from it the reservation
	// quickhull over the points the pseudohull leaves. Run with -cpu 1,2
	// for the stage's T1 and T2.
	paper := paperInput()
	survivors := paper.Gather(pseudoSurvivors(paper, CullThreshold))
	b.Run("paper/pseudo", func(b *testing.B) {
		benchRounds(b, func(st *core.Stats) { pseudo(paper, CullThreshold, st) })
	})
	b.Run("paper/survivors", func(b *testing.B) {
		benchRounds(b, func(st *core.Stats) { QuickhullStats(survivors, st) })
	})
}

// paperInput is the paper-batch workload's hull3d input: 100 k in-sphere
// points from generator seed 2.
func paperInput() geom.Points { return generators.InSphere(100_000, 3, 2) }

// benchRounds times run and reports its reservation rounds and the share
// of visible-set searches that inserted their point.
func benchRounds(b *testing.B, run func(*core.Stats)) {
	var st core.Stats
	for i := 0; i < b.N; i++ {
		st = core.Stats{}
		run(&st)
	}
	b.ReportMetric(float64(st.Rounds), "rounds")
	b.ReportMetric(float64(st.Successes)/float64(st.PointsTouched), "success_ratio")
}

func BenchmarkPseudohullThresholds(b *testing.B) {
	pts := generators.InSphere(50000, 3, 4)
	for _, thr := range []int{16, 64, 512} {
		b.Run(fmt.Sprintf("thr=%d", thr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				PseudoWithStats(pts, thr)
			}
		})
	}
}
