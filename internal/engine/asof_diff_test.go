package engine

import (
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/oracle"
)

// epochState is the oracle's view of the live set as of one published
// epoch: an immutable copy of the sequential model taken right after the
// commit that published it.
type epochState struct {
	epoch uint64
	ids   []int32
	pts   geom.Points
}

func captureEpoch(epoch uint64, m *oracle.LiveSet) epochState {
	return epochState{
		epoch: epoch,
		ids:   append([]int32(nil), m.IDs...),
		pts:   geom.Points{Data: append([]float64(nil), m.Coords...), Dim: m.Dim},
	}
}

// TestAsOfDifferential drives a sharded engine through inserts, deletes,
// multi-shard commits, and skewed inserts — recording the sequential
// oracle state at every published epoch — then checks that AsOf(e) answers
// KNN, RangeSearch, and RangeCount for EVERY retained epoch exactly as the
// brute-force oracle replayed to e. This is the tentpole's correctness
// contract: time travel returns the point set as it was, not as it is.
func TestAsOfDifferential(t *testing.T) {
	const keep = 64
	e := New(2, Options{BufferSize: 32, Shards: 4, RetainEpochs: keep})
	defer e.Close()
	m := &oracle.LiveSet{Dim: 2}
	var states []epochState
	states = append(states, captureEpoch(0, m))

	record := func(res UpdateResult, ins geom.Points, del geom.Points) {
		t.Helper()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if del.Len() > 0 {
			m.Remove(del)
		}
		if ins.Len() > 0 {
			m.Insert(res.IDs, ins)
		}
		if res.Epoch != states[len(states)-1].epoch+1 {
			// A no-op group acks at an already-recorded epoch; nothing new
			// to capture (and nothing published).
			if res.Epoch > states[len(states)-1].epoch {
				t.Fatalf("epoch gap: recorded %d, ack %d", states[len(states)-1].epoch, res.Epoch)
			}
			return
		}
		states = append(states, captureEpoch(res.Epoch, m))
	}

	for round := 0; round < 14; round++ {
		seed := uint64(round)*3 + 1
		switch round % 4 {
		case 0, 1:
			// Plain insert; large enough to span several shards (a
			// multi-shard commit) once the partition exists.
			batch := generators.UniformCube(120, 2, seed)
			record(e.Insert(batch), batch, geom.Points{Dim: 2})
		case 2:
			// Mixed update: delete a slice of known-live coordinates and
			// insert fresh ones in one request.
			victims := sampleLive(m, 30, round)
			batch := generators.UniformCube(60, 2, seed)
			record(e.Update(batch, victims), batch, victims)
		case 3:
			// Skewed insert that heats one shard.
			batch := generators.UniformCube(250, 2, seed)
			for i := 0; i < batch.Len(); i++ {
				batch.At(i)[0] *= 0.04
			}
			record(e.Insert(batch), batch, geom.Points{Dim: 2})
		}
	}
	if e.Epoch() != states[len(states)-1].epoch {
		t.Fatalf("live epoch %d, last recorded %d", e.Epoch(), states[len(states)-1].epoch)
	}

	// Every state inside the retention window must answer exactly like the
	// oracle replayed to its epoch.
	watermark := e.RetainWatermark()
	probes := generators.UniformCube(6, 2, 999)
	boxes := []geom.Box{
		{Min: []float64{-1e9, -1e9}, Max: []float64{1e9, 1e9}},
		{Min: []float64{0, 0}, Max: []float64{0.4, 0.7}},
		{Min: []float64{0.02, 0.1}, Max: []float64{0.06, 0.9}},
	}
	checked := 0
	for _, st := range states {
		if st.epoch < watermark {
			continue
		}
		s, err := e.AsOf(st.epoch)
		if err != nil {
			t.Fatalf("AsOf(%d): %v (watermark %d)", st.epoch, err, watermark)
		}
		if s.Size() != len(st.ids) {
			t.Fatalf("epoch %d: size %d, oracle %d", st.epoch, s.Size(), len(st.ids))
		}
		coordsOf := make(map[int32][]float64, len(st.ids))
		for i, id := range st.ids {
			coordsOf[id] = st.pts.At(i)
		}
		for p := 0; p < probes.Len(); p++ {
			q := probes.At(p)
			got := s.KNN(geom.Points{Data: q, Dim: 2}, 7)[0]
			wantD := oracle.KNNDists(st.pts, q, 7, -1)
			if len(got) != len(wantD) {
				t.Fatalf("epoch %d: knn returned %d of %d", st.epoch, len(got), len(wantD))
			}
			for j, id := range got {
				c := coordsOf[id]
				if c == nil {
					t.Fatalf("epoch %d: knn returned id %d not live at that epoch", st.epoch, id)
				}
				if d := geom.SqDist(q, c); d != wantD[j] {
					t.Fatalf("epoch %d: knn dist[%d]=%v, oracle %v", st.epoch, j, d, wantD[j])
				}
			}
		}
		for _, box := range boxes {
			gotIDs := s.RangeSearch(box)
			wantIdx := oracle.RangeSearch(st.pts, box)
			if len(gotIDs) != len(wantIdx) {
				t.Fatalf("epoch %d: range %d ids, oracle %d", st.epoch, len(gotIDs), len(wantIdx))
			}
			want := make(map[int32]bool, len(wantIdx))
			for _, i := range wantIdx {
				want[st.ids[i]] = true
			}
			for _, id := range gotIDs {
				if !want[id] {
					t.Fatalf("epoch %d: range returned id %d outside the oracle set", st.epoch, id)
				}
			}
			if n := s.RangeCount(box); n != len(wantIdx) {
				t.Fatalf("epoch %d: count %d, oracle %d", st.epoch, n, len(wantIdx))
			}
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d epochs checked; the run must retain a meaningful history", checked)
	}
}

// sampleLive copies n live coordinates out of the model (deterministically
// spread across the set) to use as a deletion batch.
func sampleLive(m *oracle.LiveSet, n, salt int) geom.Points {
	live := len(m.IDs)
	if live == 0 {
		return geom.Points{Dim: m.Dim}
	}
	if n > live {
		n = live
	}
	out := geom.Points{Dim: m.Dim}
	step := live / n
	if step == 0 {
		step = 1
	}
	for i := 0; i < n; i++ {
		row := (i*step + salt) % live
		out.Data = append(out.Data, m.Coords[row*m.Dim:(row+1)*m.Dim]...)
	}
	return out
}
