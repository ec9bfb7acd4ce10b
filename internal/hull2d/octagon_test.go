package hull2d

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
)

// octagonShapes are inputs that put points on or near the octagon the
// sequential quickhull filters with: ties among its corners, corners that
// coincide, and hulls whose every point is a vertex.
func octagonShapes() []struct {
	name string
	pts  geom.Points
} {
	circle := func(n int) geom.Points {
		pts := geom.NewPoints(n, 2)
		for i := 0; i < n; i++ {
			a := 2 * math.Pi * float64(i) / float64(n)
			pts.Set(i, []float64{1000 * math.Cos(a), 1000 * math.Sin(a)})
		}
		return pts
	}
	grid := geom.NewPoints(0, 2)
	for i := 0; i < 70; i++ {
		for j := 0; j < 70; j++ {
			grid = grid.Append([]float64{float64(i), float64(j)})
		}
	}
	diamond := geom.NewPoints(0, 2)
	for x := -40; x <= 40; x++ {
		for y := -40; y <= 40; y++ {
			if abs(x)+abs(y) <= 40 {
				diamond = diamond.Append([]float64{float64(x), float64(y)})
			}
		}
	}
	diagonal := geom.NewPoints(5000, 2)
	for i := 0; i < diagonal.Len(); i++ {
		// Reversed, so the lexicographic extremes are the last and first.
		v := float64(diagonal.Len() - i)
		diagonal.Set(i, []float64{v, v})
	}
	// A uniform square whose four corners each appear ten times, spread
	// through the input.
	dupCorners := generators.UniformCube(5000, 2, 3)
	corners := [][]float64{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	for k := 0; k < 40; k++ {
		dupCorners.Set(k*101, corners[k%4])
	}
	return []struct {
		name string
		pts  geom.Points
	}{
		{"circle-2000", circle(2000)},
		{"circle-4100", circle(4100)},
		{"grid-70x70", grid},
		{"diamond", diamond},
		{"diagonal", diagonal},
		{"duplicated-corners", dupCorners},
		{"insphere-4097", generators.InSphere(4097, 2, 4)},
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// coordCycle is a hull's vertex cycle as coordinates: canonical hulls of
// one input agree on it even where they pick different duplicate indices.
func coordCycle(pts geom.Points, h []int32) [][2]float64 {
	out := make([][2]float64, len(h))
	for i, v := range h {
		p := pts.At(int(v))
		out[i] = [2]float64{p[0], p[1]}
	}
	return out
}

func TestOctagonFilterMatchesMonotoneChain(t *testing.T) {
	for _, tc := range octagonShapes() {
		want := coordCycle(tc.pts, MonotoneChain(tc.pts))
		for _, procs := range []int{1, 2, 4} {
			old := runtime.GOMAXPROCS(procs)
			for _, alg := range []struct {
				name string
				f    func(geom.Points) []int32
			}{{"SequentialQuickhull", SequentialQuickhull}, {"DivideConquer", DivideConquer}} {
				if diff := cycleDiff(coordCycle(tc.pts, alg.f(tc.pts)), want); diff != "" {
					t.Errorf("%s/%s P=%d: %s", tc.name, alg.name, procs, diff)
				}
			}
			runtime.GOMAXPROCS(old)
		}
	}
}

// cycleDiff describes the first difference between two vertex cycles, or
// returns "" when they are equal.
func cycleDiff(got, want [][2]float64) string {
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("vertex %d is %v, want %v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d vertices, want %d", len(got), len(want))
	}
	return ""
}

func TestOctagonSplitSurvivors(t *testing.T) {
	// On the circle every point is a vertex, so every point but the two
	// x-extremes survives.
	shapes := octagonShapes()
	circle := shapes[0].pts
	s := octagonSplit(circle)
	if got := len(s.lower) + len(s.upper); got != circle.Len()-2 {
		t.Fatalf("circle: %d survivors, want %d", got, circle.Len()-2)
	}
	// In a 2-D disk the octagon holds about 2√2/π ≈ 90 % of the points.
	disk := generators.InSphere(100000, 2, 5)
	s = octagonSplit(disk)
	if frac := float64(len(s.lower)+len(s.upper)) / float64(disk.Len()); frac > 0.12 {
		t.Fatalf("disk: %.3f of the points survive the octagon", frac)
	}
}
