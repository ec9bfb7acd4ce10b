package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
	"time"

	"pargeo/internal/baseline"
	"pargeo/internal/generators"
	"pargeo/internal/geom"
)

// TestExperimentDispatch runs the real experiment list with every run
// function stubbed: each listed name runs exactly its own entry, "all"
// runs every entry in order, and a name that is not listed exits 2
// without running anything.
func TestExperimentDispatch(t *testing.T) {
	var ran []string
	stubs := make([]experiment, len(experiments))
	for i, e := range experiments {
		name := e.name
		stubs[i] = experiment{name: name, what: e.what, run: func() { ran = append(ran, name) }}
	}
	var errw strings.Builder
	for _, e := range stubs {
		ran = nil
		if code := runExperiments(stubs, e.name, &errw); code != 0 || len(ran) != 1 || ran[0] != e.name {
			t.Errorf("-experiment %s: exit %d, ran %v", e.name, code, ran)
		}
		if !strings.Contains(flag.Lookup("experiment").Usage, e.name) {
			t.Errorf("-h does not list %q", e.name)
		}
	}
	ran = nil
	if code := runExperiments(stubs, "all", &errw); code != 0 || len(ran) != len(stubs) {
		t.Errorf("-experiment all: exit %d, ran %v", code, ran)
	}
	for i, name := range ran {
		if name != stubs[i].name {
			t.Errorf("all ran %v out of list order", ran)
			break
		}
	}
	if errw.Len() != 0 {
		t.Errorf("listed names wrote to stderr: %s", errw.String())
	}
	// The three experiments benchmark/ replaced are gone, not aliased.
	for _, name := range []string{"tabel1", "", "kdtree", "wal", "serve"} {
		ran = nil
		errw.Reset()
		if code := runExperiments(stubs, name, &errw); code != 2 || len(ran) != 0 {
			t.Errorf("-experiment %q: exit %d, ran %v; want exit 2 and nothing run", name, code, ran)
		}
		if !strings.Contains(errw.String(), "table1") {
			t.Errorf("-experiment %q: error does not list the experiments: %q", name, errw.String())
		}
	}
}

func TestParseThreadsExplicit(t *testing.T) {
	got := parseThreads("1, 2,8")
	want := []int{1, 2, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestParseThreadsDefaultDoubling(t *testing.T) {
	got := parseThreads("")
	if len(got) == 0 || got[0] != 1 {
		t.Fatalf("default should start at 1: %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("not increasing: %v", got)
		}
	}
}

func TestTimeItMeasures(t *testing.T) {
	sec := timeIt(func() { time.Sleep(12 * time.Millisecond) })
	if sec < 0.010 || sec > 1 {
		t.Fatalf("timeIt = %v", sec)
	}
}

func TestWithThreadsRestores(t *testing.T) {
	withThreads(1, func() {})
	// Smoke check: ms formatting.
	if got := ms(0.0123); got != "12.3" {
		t.Fatalf("ms = %q", got)
	}
}

// TestDynamicVariantsAgree runs every operation of fig11 and zdcompare over
// every structure of the variant table: the cross-check must pass.
func TestDynamicVariantsAgree(t *testing.T) {
	pts := generators.UniformCube(3000, 3, 1)
	for _, op := range dynOps {
		if _, err := measure(dynVariants, op, pts, 2); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrossCheckCatchesDisagreement: a structure that lost a point, or
// holds one sampled point elsewhere, fails the cross-check, and the error
// names it.
func TestCrossCheckCatchesDisagreement(t *testing.T) {
	pts := generators.UniformCube(2000, 2, 2)
	// Row 1000 is the 33rd sampled query (32·2000/64).
	moved := geom.Points{Data: slices.Clone(pts.Data), Dim: 2}
	moved.Set(1000, []float64{5, 5})
	vs := pick("B2-object", "BDL-object")
	for name, mk := range map[string]func() baseline.Dynamic{
		"lost": func() baseline.Dynamic {
			tr := vs[0].mk(pts)
			tr.Insert(pts)
			tr.Delete(pts.Slice(0, 1))
			return tr
		},
		"moved": func() baseline.Dynamic {
			tr := vs[0].mk(pts)
			tr.Insert(moved)
			return tr
		},
	} {
		ref := vs[1].mk(pts)
		ref.Insert(pts)
		sigs := []string{signature(mk(), pts), signature(ref, pts)}
		err := crossCheck(vs, sigs, "insert")
		if err == nil || !strings.Contains(err.Error(), "B2-object") {
			t.Errorf("%s point: cross-check error %v, want one naming B2-object", name, err)
		}
	}
}
