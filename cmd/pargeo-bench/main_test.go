package main

import (
	"flag"
	"strings"
	"testing"
	"time"
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
