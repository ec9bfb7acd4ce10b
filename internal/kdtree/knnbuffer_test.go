package kdtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// knnBufferKs are the neighbour counts the buffer's property tests cover:
// the batch regime (k ≤ 8), deeper heaps, and a k larger than any default
// leaf.
var knnBufferKs = []int{1, 4, 8, 16, 64, 300}

// checkKNNBufferOps runs one op program against a KNNBuffer for k
// neighbours and checks it, after every op, against a sort oracle over
// every candidate the program offered. A byte below 0xE0 inserts a fresh
// id at squared distance b>>2 (56 values, so ties are common); the others
// pick an op from b-0xE0: 0–9 checks ResultInto, 10–19 checks Result,
// 20–25 resets, and 26–31 loads the next byte mod k+1 sorted distances
// (taken from the bytes after it) padded with (-1, +Inf) to k slots —
// AllKNN's path. After every op Bound() must be the exact k-th smallest
// offered distance (+Inf below k candidates) and Full() must agree; a
// result must be the k smallest distances in increasing order, each id
// reported with the distance it was offered at. Results leave the buffer
// valid, so a program may keep inserting after one.
func checkKNNBufferOps(t *testing.T, k int, ops []byte) {
	t.Helper()
	b := NewKNNBuffer(k)
	var model []float64       // every offered distance and +Inf pad, sorted
	at := map[int32]float64{} // offered id -> its distance
	next := int32(0)
	ids := make([]int32, k)
	ds := make([]float64, k)
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		switch c := int(op) - 0xE0; {
		case c < 0:
			d := float64(op >> 2)
			b.Insert(next, d)
			at[next] = d
			next++
			j, _ := slices.BinarySearch(model, d)
			model = slices.Insert(model, j, d)
		case c < 20:
			want := model[:min(k, len(model))]
			var got []int32
			if c < 10 {
				n := b.ResultInto(ids, ds)
				got = ids[:n]
				if !slices.Equal(ds[:n], want) {
					t.Fatalf("op %d, k=%d: ResultInto dists %v, oracle %v", i, k, ds[:n], want)
				}
			} else {
				got = b.Result(nil)
			}
			if len(got) != len(want) {
				t.Fatalf("op %d, k=%d: %d results, oracle %d", i, k, len(got), len(want))
			}
			seen := map[int32]bool{}
			for j, id := range got {
				d, ok := at[id]
				if id < 0 {
					d, ok = math.Inf(1), true
				}
				if !ok || d != want[j] || (id >= 0 && seen[id]) {
					t.Fatalf("op %d, k=%d: result %d is id %d (offered=%v at %v, repeated=%v), oracle distance %v",
						i, k, j, id, ok, d, seen[id], want[j])
				}
				seen[id] = true
			}
		case c < 26:
			b.Reset()
			model, at = model[:0], map[int32]float64{}
		default:
			m := 0
			if i+1 < len(ops) {
				i++
				m = int(ops[i]) % (k + 1)
			}
			model, at = model[:0], map[int32]float64{}
			for ; m > 0 && i+1 < len(ops); m-- {
				i++
				model = append(model, float64(ops[i]>>2))
			}
			slices.Sort(model)
			lids, lds := make([]int32, k), make([]float64, k)
			for j := range lids {
				lids[j], lds[j] = -1, math.Inf(1)
				if j < len(model) {
					lids[j], lds[j] = next, model[j]
					at[next] = model[j]
					next++
				}
			}
			for len(model) < k {
				model = append(model, math.Inf(1))
			}
			b.load(lids, lds)
		}
		wantBound := math.Inf(1)
		if len(model) >= k {
			wantBound = model[k-1]
		}
		if b.Bound() != wantBound || b.Full() != (len(model) >= k) {
			t.Fatalf("op %d (%#x), k=%d: Bound() = %v, Full() = %v with %d candidates; oracle k-th %v",
				i, op, k, b.Bound(), b.Full(), len(model), wantBound)
		}
	}
}

// knnBufferProgram returns n random op bytes, a share ops of them not
// inserts.
func knnBufferProgram(r *rand.Rand, n int, ops float64) []byte {
	p := make([]byte, n)
	for i := range p {
		if r.Float64() < ops {
			p[i] = byte(0xE0 + r.Intn(32))
		} else {
			p[i] = byte(r.Intn(0xE0))
		}
	}
	return p
}

// TestKNNBufferProperty: buffer results, bounds and reuse match a sort
// oracle over random op programs for every k of knnBufferKs.
func TestKNNBufferProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, k := range knnBufferKs {
		for trial := 0; trial < 40; trial++ {
			checkKNNBufferOps(t, k, knnBufferProgram(r, 4*k+100, 0.02))
		}
	}
}

// FuzzKNNBuffer drives checkKNNBufferOps from the fuzzing engine. Its seed
// corpus (run by plain go test) covers, for every k: fewer than k inserts,
// exactly k, many more than k with replacements, results mid-stream,
// Reset reuse, and a padded load followed by inserts.
func FuzzKNNBuffer(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for ki, k := range knnBufferKs {
		few := make([]byte, k/2)
		for i := range few {
			few[i] = byte(4 * (k - i) % 0xE0)
		}
		f.Add(uint8(ki), append(few, 0xE0, 0xEA))
		f.Add(uint8(ki), knnBufferProgram(r, k, 0))
		f.Add(uint8(ki), append(knnBufferProgram(r, 6*k+50, 0), 0xE0))
		f.Add(uint8(ki), knnBufferProgram(r, 6*k+50, 0.05))
		load := append([]byte{0xFA, byte(k / 2)}, knnBufferProgram(r, k/2, 0)...)
		f.Add(uint8(ki), append(load, knnBufferProgram(r, 3*k+20, 0.03)...))
	}
	f.Fuzz(func(t *testing.T, ki uint8, ops []byte) {
		checkKNNBufferOps(t, knnBufferKs[int(ki)%len(knnBufferKs)], ops)
	})
}
