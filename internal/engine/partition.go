package engine

import (
	"sort"

	"pargeo/internal/geom"
	"pargeo/internal/morton"
)

// partition is one immutable Morton-range space partition: shard s owns the
// inclusive code interval (bounds[s-1], bounds[s]] (with implicit 0-1 = -1
// and bounds[S-1] = MaxCode). The first committed insertion creates the
// founding partition (boundaries chosen by sampling that commit's points),
// and it stays the engine's partition for good; recovery restores it from
// the checkpoint. A partition value never mutates, so routing, pruning,
// and publish decisions read it without synchronization.
type partition struct {
	dim    int
	world  geom.Box // quantization box of the defining commit
	bounds []uint64 // S-1 ascending inclusive upper bounds

	// Conservative per-shard geometry, precomputed from the aligned-cell
	// decomposition of each shard's code interval: cellBoxes for tight
	// pruning, unionBox for an O(dim) quick test. Every point a shard can
	// contain — including points outside world, which Encode clamps into
	// boundary cells — lies inside these regions.
	cellBoxes [][]geom.Box
	unionBox  []geom.Box
}

func (p *partition) shards() int { return len(p.bounds) + 1 }

// codeRange returns shard s's inclusive code interval; empty intervals
// (possible when sampled boundaries collide) come back as lo > hi.
func (p *partition) codeRange(s int) (lo, hi uint64) {
	max := morton.MaxCode(p.dim)
	if s == 0 {
		lo = 0
	} else {
		if p.bounds[s-1] == max {
			return 1, 0 // nothing above MaxCode: empty shard
		}
		lo = p.bounds[s-1] + 1
	}
	if s < len(p.bounds) {
		hi = p.bounds[s]
	} else {
		hi = max
	}
	return lo, hi
}

// shardOf returns the shard owning the point's Morton code.
func (p *partition) shardOf(coords []float64) int {
	code := morton.Encode(coords, p.world)
	return sort.Search(len(p.bounds), func(i int) bool { return code <= p.bounds[i] })
}

// overlaps reports whether shard s can hold a point inside box
// (conservative: false guarantees no member of the shard is in the box).
// The O(dim) union-box test rejects most shards before the cell pass.
func (p *partition) overlaps(s int, box geom.Box) bool {
	return p.unionBox[s].Intersects(box) && morton.BoxesIntersect(p.cellBoxes[s], box)
}

// minSqDist returns a lower bound on the squared distance from q to any
// point shard s can hold (+inf for an empty shard).
func (p *partition) minSqDist(s int, q []float64) float64 {
	return morton.BoxesMinSqDist(p.cellBoxes[s], q)
}

// shardSampleSize bounds how many of the defining commit's codes are
// sampled to place shard boundaries.
const shardSampleSize = 4096

// newPartition places S-1 boundaries at the quantiles of a sample of the
// defining commit's Morton codes. Duplicate quantiles (heavily skewed or
// tiny samples) simply leave some shards empty — routing and pruning treat
// an empty code interval consistently.
func newPartition(dim, shards int, world geom.Box, codes []uint64) *partition {
	sample := make([]uint64, 0, shardSampleSize)
	if len(codes) <= shardSampleSize {
		sample = append(sample, codes...)
	} else {
		stride := len(codes) / shardSampleSize
		for i := 0; i < len(codes); i += stride {
			sample = append(sample, codes[i])
		}
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	bounds := make([]uint64, shards-1)
	for j := range bounds {
		if len(sample) == 0 {
			bounds[j] = 0
			continue
		}
		idx := (j + 1) * len(sample) / shards
		if idx >= len(sample) {
			idx = len(sample) - 1
		}
		bounds[j] = sample[idx]
	}
	return newPartitionFromBounds(dim, world, bounds)
}

// newPartitionFromBounds builds a partition directly from S-1 ascending
// inclusive upper bounds, precomputing each shard's conservative cell-box
// geometry. Recovery uses it to reinstate a checkpoint's partition.
func newPartitionFromBounds(dim int, world geom.Box, bounds []uint64) *partition {
	shards := len(bounds) + 1
	p := &partition{dim: dim, world: world, bounds: bounds}
	p.cellBoxes = make([][]geom.Box, shards)
	p.unionBox = make([]geom.Box, shards)
	for s := 0; s < shards; s++ {
		lo, hi := p.codeRange(s)
		p.cellBoxes[s] = morton.RangeBoxes(lo, hi, dim, world)
		u := geom.EmptyBox(dim)
		for _, b := range p.cellBoxes[s] {
			u.Union(b)
		}
		p.unionBox[s] = u
	}
	return p
}

// splitByShard partitions a batch's rows by owning shard, preserving row
// order within each shard. Returned per-shard batches alias fresh storage;
// ids (optional, parallel to rows) are split alongside.
func (p *partition) splitByShard(batch geom.Points, ids []int32) (bySh []geom.Points, idsBy [][]int32, affected []int) {
	n := batch.Len()
	s := p.shards()
	rowShard := make([]int32, n)
	counts := make([]int, s)
	for i := 0; i < n; i++ {
		sh := p.shardOf(batch.At(i))
		rowShard[i] = int32(sh)
		counts[sh]++
	}
	bySh = make([]geom.Points, s)
	idsBy = make([][]int32, s)
	for sh := 0; sh < s; sh++ {
		if counts[sh] == 0 {
			bySh[sh] = geom.Points{Dim: p.dim}
			continue
		}
		affected = append(affected, sh)
		bySh[sh] = geom.Points{Data: make([]float64, 0, counts[sh]*p.dim), Dim: p.dim}
		if ids != nil {
			idsBy[sh] = make([]int32, 0, counts[sh])
		}
	}
	for i := 0; i < n; i++ {
		sh := rowShard[i]
		bySh[sh].Data = append(bySh[sh].Data, batch.At(i)...)
		if ids != nil {
			idsBy[sh] = append(idsBy[sh], ids[i])
		}
	}
	return bySh, idsBy, affected
}
