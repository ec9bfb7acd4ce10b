package parlay

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 10000, 100001} {
		hit := make([]int32, n)
		For(n, 10, func(i int) { atomic.AddInt32(&hit[i], 1) })
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestForBlockedPartition(t *testing.T) {
	n := 54321
	var total int64
	ForBlocked(n, 100, func(lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad block [%d,%d)", lo, hi)
		}
		atomic.AddInt64(&total, int64(hi-lo))
	})
	if total != int64(n) {
		t.Fatalf("blocks cover %d of %d", total, n)
	}
}

func TestDoRunsAll(t *testing.T) {
	var a, b, c int32
	Do(
		func() { atomic.StoreInt32(&a, 1) },
		func() { atomic.StoreInt32(&b, 1) },
		func() { atomic.StoreInt32(&c, 1) },
	)
	if a+b+c != 3 {
		t.Fatal("Do did not run all thunks")
	}
	Do() // no-op must not hang
}

func TestReduceSum(t *testing.T) {
	n := 100000
	got := Reduce(n, 0, 0, func(i int) int { return i }, func(a, b int) int { return a + b })
	want := n * (n - 1) / 2
	if got != want {
		t.Fatalf("Reduce sum = %d, want %d", got, want)
	}
}

func TestSumIntAndCount(t *testing.T) {
	if got := SumInt(1000, 0, func(i int) int { return 2 }); got != 2000 {
		t.Fatalf("SumInt = %d", got)
	}
	if got := Count(1000, 0, func(i int) bool { return i%3 == 0 }); got != 334 {
		t.Fatalf("Count = %d", got)
	}
}

func TestMaxIndexFloat(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6, 9, 3}
	got := MaxIndexFloat(len(vals), 2, func(i int) float64 { return vals[i] })
	if got != 5 { // first of the two 9s
		t.Fatalf("MaxIndexFloat = %d, want 5", got)
	}
	if MaxIndexFloat(0, 0, func(int) float64 { return 0 }) != -1 {
		t.Fatal("empty MaxIndexFloat should be -1")
	}
	if got := MinIndexFloat(len(vals), 2, func(i int) float64 { return vals[i] }); got != 1 {
		t.Fatalf("MinIndexFloat = %d, want 1", got)
	}
}

func TestScanIntsMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 5, 1000, 65537} {
		in := make([]int, n)
		ref := make([]int, n)
		for i := range in {
			in[i] = r.Intn(10)
			ref[i] = in[i]
		}
		total := ScanInts(in)
		want := 0
		for i := 0; i < n; i++ {
			if in[i] != want {
				t.Fatalf("n=%d: scan[%d] = %d, want %d", n, i, in[i], want)
			}
			want += ref[i]
		}
		if total != want {
			t.Fatalf("n=%d: total = %d, want %d", n, total, want)
		}
	}
}

func TestPackIndexAndPack(t *testing.T) {
	n := 30000
	idx := PackIndex(n, func(i int) bool { return i%7 == 0 })
	if len(idx) != (n+6)/7 {
		t.Fatalf("PackIndex len = %d", len(idx))
	}
	for k, v := range idx {
		if int(v) != 7*k {
			t.Fatalf("PackIndex[%d] = %d", k, v)
		}
	}
	in := make([]int, n)
	for i := range in {
		in[i] = i
	}
	out := Pack(in, func(i int) bool { return in[i]%2 == 1 })
	if len(out) != n/2 {
		t.Fatalf("Pack len = %d", len(out))
	}
	for k, v := range out {
		if v != 2*k+1 {
			t.Fatalf("Pack[%d] = %d", k, v)
		}
	}
	got := Filter(in, func(v int) bool { return v < 10 })
	if len(got) != 10 || got[9] != 9 {
		t.Fatalf("Filter bad: %v", got)
	}
}

// TestPackCallsKeepOnce: Pack and PackIndex ask keep about every index
// exactly once and keep the survivors in order, at block boundaries
// (DefaultGrain ± 1) and with the scheduler off, engaged and
// oversubscribed.
func TestPackCallsKeepOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(p)
		for _, n := range []int{0, 1, DefaultGrain - 1, DefaultGrain, DefaultGrain + 1, 100000} {
			calls := make([]int32, n)
			keep := func(i int) bool {
				atomic.AddInt32(&calls[i], 1)
				return i%3 != 1
			}
			checkOnce := func(name string) {
				for i, c := range calls {
					if c != 1 {
						t.Fatalf("P=%d n=%d %s: keep(%d) called %d times", p, n, name, i, c)
					}
					calls[i] = 0
				}
			}
			want := make([]int32, 0, n)
			for i := 0; i < n; i++ {
				if i%3 != 1 {
					want = append(want, int32(i))
				}
			}
			idx := PackIndex(n, keep)
			checkOnce("PackIndex")
			in := make([]int32, n)
			for i := range in {
				in[i] = int32(i)
			}
			vals := Pack(in, keep)
			checkOnce("Pack")
			if !slices.Equal(idx, want) || !slices.Equal(vals, want) {
				t.Fatalf("P=%d n=%d: packed out of order or wrong", p, n)
			}
		}
	}
}

func TestWriteMinConcurrent(t *testing.T) {
	var slot int64 = 1 << 62
	n := 10000
	For(n, 1, func(i int) { WriteMin(&slot, int64(i)) })
	if slot != 0 {
		t.Fatalf("WriteMin final = %d, want 0", slot)
	}
	var mx int64 = -1 << 62
	For(n, 1, func(i int) { WriteMax(&mx, int64(i)) })
	if mx != int64(n-1) {
		t.Fatalf("WriteMax final = %d", mx)
	}
}

func TestWriteMinReturnValue(t *testing.T) {
	var slot int64 = 100
	if !WriteMin(&slot, 50) {
		t.Fatal("WriteMin(50) over 100 should win")
	}
	if WriteMin(&slot, 70) {
		t.Fatal("WriteMin(70) over 50 should lose")
	}
	if WriteMin(&slot, 50) {
		t.Fatal("WriteMin(equal) should lose")
	}
}

func TestWriteMinFloat64(t *testing.T) {
	var slot uint64 = 1<<63 - 1
	For(1000, 1, func(i int) { WriteMinFloat64(&slot, float64(i)+0.5) })
	if got := math.Float64frombits(slot); got != 0.5 {
		t.Fatalf("WriteMinFloat64 got %v", got)
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 2, 100, 10000, 100000} {
		a := make([]int, n)
		for i := range a {
			a[i] = r.Intn(1000)
		}
		b := append([]int(nil), a...)
		Sort(a, func(x, y int) bool { return x < y })
		sort.Ints(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: mismatch at %d: %d vs %d", n, i, a[i], b[i])
			}
		}
	}
}

func TestSortProperty(t *testing.T) {
	f := func(a []uint16) bool {
		s := make([]int, len(a))
		for i, v := range a {
			s[i] = int(v)
		}
		Sort(s, func(x, y int) bool { return x < y })
		return sort.IntsAreSorted(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortPairsMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 255, 256, 70000} {
		keys := make([]uint64, n)
		vals := make([]int32, n)
		type kv struct {
			k uint64
			v int32
		}
		ref := make([]kv, n)
		for i := range keys {
			keys[i] = uint64(r.Int63n(1 << 40))
			vals[i] = int32(i)
			ref[i] = kv{keys[i], vals[i]}
		}
		SortPairs(keys, vals)
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].k < ref[j].k })
		for i := 0; i < n; i++ {
			if keys[i] != ref[i].k || vals[i] != ref[i].v {
				t.Fatalf("n=%d: mismatch at %d: (%d,%d) vs (%d,%d)", n, i, keys[i], vals[i], ref[i].k, ref[i].v)
			}
		}
	}
}

func TestSortPairsStability(t *testing.T) {
	// Equal keys must preserve original value order (radix sort is stable).
	n := 10000
	keys := make([]uint64, n)
	vals := make([]int32, n)
	for i := range keys {
		keys[i] = uint64(i % 16)
		vals[i] = int32(i)
	}
	SortPairs(keys, vals)
	for i := 1; i < n; i++ {
		if keys[i] == keys[i-1] && vals[i] < vals[i-1] {
			t.Fatalf("instability at %d", i)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	n := 1000
	p := RandomPermutation(n, 123)
	seen := make([]bool, n)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
	// Determinism.
	q := RandomPermutation(n, 123)
	for i := range p {
		if p[i] != q[i] {
			t.Fatal("RandomPermutation not deterministic")
		}
	}
	// Different seeds should differ somewhere.
	r := RandomPermutation(n, 124)
	same := true
	for i := range p {
		if p[i] != r[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical permutations")
	}
}
