package main

import (
	"math"
	"sort"
	"time"

	"pargeo/internal/geom"
	"pargeo/internal/parlay"
	"pargeo/internal/rng"
)

// Every input is a pure function of the run seed: the same --seed gives
// the same points, queries, update batches and arrival schedules, and the
// program under test receives only these generated inputs. stream derives
// an independent generator per purpose so adding a consumer never shifts
// another's values.
func stream(seed uint64, purpose string) *rng.Xoshiro256 {
	h := seed
	for _, c := range []byte(purpose) {
		h = rng.Hash64(h ^ uint64(c))
	}
	return rng.NewXoshiro256(h)
}

// datasetD2 is the clustered 2-D set shared by embed-read, serve-mixed and
// the read ledger, so the same points sit under every rung. It follows the
// recipe of generators.VisualVar (the paper's 2D-V: a dozen Gaussian
// clusters whose standard deviations span two orders of magnitude over a
// 5 % uniform background in a square of side √n) but is one constant set:
// neither the cluster layout nor the sample is drawn from the run seed,
// which draws the queries, the update batches and the arrival schedule.
// Two layouts differ in k-NN cost by up to 40 %, and two samples of one
// layout still by ±13 % (sd of k-NN p50 and k-NN/s over ten seeds, against
// ±5 % between two runs on one sample): how many points land in each of
// the engine's shards (116 k to 133 k over ten samples) decides how many
// trees each shard's log-structured ladder holds (2 to 7, the one bits of
// the count in units of the buffer size), and every k-NN visits them all.
// That is the luck of the sample, not the system; with it in the inputs a
// metric's seed-to-seed spread could not resolve a 10 % change.
func datasetD2(n int) geom.Points {
	const clusters, layoutSeed, sampleSeed = 12, 2022, 4242
	side := math.Sqrt(float64(n))
	lay := rng.NewXoshiro256(layoutSeed)
	var cx, cy, sd [clusters]float64
	for i := range cx {
		cx[i], cy[i] = lay.Float64()*side, lay.Float64()*side
		sd[i] = side / 1000 * math.Pow(100, lay.Float64()) // side/1000 .. side/10
	}
	pts := geom.NewPoints(n, 2)
	parlay.ForBlocked(n, 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := rng.NewXoshiro256(rng.Hash64(sampleSeed ^ uint64(i)*0x9e3779b97f4a7c15))
			p := pts.At(i)
			if r.Float64() < 0.05 {
				p[0], p[1] = r.Float64()*side, r.Float64()*side
				continue
			}
			c := r.Intn(clusters)
			p[0], p[1] = cx[c]+r.NormFloat64()*sd[c], cy[c]+r.NormFloat64()*sd[c]
		}
	})
	return pts
}

// queriesQ2 is the k-NN query stream over a data set: three rows in four
// are data points jittered by about one mean nearest-neighbour spacing
// (queries that land in dense leaves), every fourth is uniform in the
// bounding box (queries that land in sparse space and backtrack far more:
// 10–50× the cost on clustered data). Both kinds matter — a tree change
// can move them in opposite directions — and the 3:1 mix puts the median
// inside the cheap population and p99 inside the expensive one. At 1:1 the
// median sits on the boundary between the two and jumps between them.
func queriesQ2(data geom.Points, m int, seed uint64) geom.Points {
	r := stream(seed, "q2")
	box := geom.BoundingBoxAll(data)
	dim := data.Dim
	vol := 1.0
	for c := 0; c < dim; c++ {
		vol *= box.Max[c] - box.Min[c]
	}
	jitter := math.Pow(vol/float64(data.Len()), 1/float64(dim))
	q := geom.NewPoints(m, dim)
	for i := 0; i < m; i++ {
		row := q.At(i)
		if i%4 != 3 {
			p := data.At(r.Intn(data.Len()))
			for c := range row {
				row[c] = p[c] + (r.Float64()-0.5)*jitter
			}
		} else {
			for c := range row {
				row[c] = box.Min[c] + r.Float64()*(box.Max[c]-box.Min[c])
			}
		}
	}
	return q
}

// freshPoints returns n points uniform in box. Uniform doubles never
// collide in practice, so delete-by-coordinates removes exactly the batch
// that was inserted.
func freshPoints(r *rng.Xoshiro256, box geom.Box, n int) geom.Points {
	dim := len(box.Min)
	p := geom.NewPoints(n, dim)
	for i := range p.Data {
		c := i % dim
		p.Data[i] = box.Min[c] + r.Float64()*(box.Max[c]-box.Min[c])
	}
	return p
}

// arrival is one scheduled open-loop request.
type arrival struct {
	at    time.Duration // offset from the phase start at which it is due
	class int           // index into the phase's classes
}

// poissonSchedule merges independent Poisson processes (one per rate, in
// arrivals/s) over [0, span) into one time-ordered schedule. It is
// computed before the phase starts: the generator's only job while the
// clock runs is to sleep until the next due time and fire.
func poissonSchedule(seed uint64, span time.Duration, rates []float64) []arrival {
	var out []arrival
	for class, rate := range rates {
		r := stream(seed, "poisson"+string(rune('a'+class)))
		t := 0.0
		for rate > 0 {
			t += -math.Log(1-r.Float64()) / rate
			at := time.Duration(t * float64(time.Second))
			if at >= span {
				break
			}
			out = append(out, arrival{at: at, class: class})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].at < out[b].at })
	return out
}
