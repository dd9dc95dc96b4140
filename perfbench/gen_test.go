package main

import (
	"fmt"
	"reflect"
	"testing"
)

// heldOutSeed is kept out of tuning runs; a claimed gain must also hold
// on it (see README.md).
const heldOutSeed = 9001

func fmtSpeeds(s []float64) string { return fmt.Sprint(s) }

func draw(name string, seed int64, n int) []job {
	st := newStream(name, "run", seed, workloads[name].mix)
	js := make([]job, n)
	for i := range js {
		js[i] = st.next()
	}
	return js
}

func TestSameSeedSameStream(t *testing.T) {
	for name := range workloads {
		a, b := draw(name, 7, 200), draw(name, 7, 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams from seed 7 differ", name)
		}
		if other := draw(name, heldOutSeed, 200); reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 7 and %d give the same stream", name, heldOutSeed)
		}
	}
}

func TestStreamShape(t *testing.T) {
	seeds := map[int64]bool{}
	sizes := map[int]int{}
	shapes := map[string]int{}
	checks := 0
	for _, j := range draw("serve-cluster-mix", 3, 5000) {
		if seeds[j.Seed] {
			t.Fatalf("job %d repeats seed %d", j.Index, j.Seed)
		}
		seeds[j.Seed] = true
		sizes[j.N]++
		shapes[j.Shape]++
		if j.Check {
			checks++
		}
	}
	// n ∈ {128, 256, 512} at exactly 2:2:1 over whole decks of 10, shapes
	// half square-corner, half auto.
	if sizes[128] != 2000 || sizes[256] != 2000 || sizes[512] != 1000 {
		t.Errorf("sizes %v, want 2000/2000/1000", sizes)
	}
	if shapes[""] != 2500 || shapes["square-corner"] != 2500 {
		t.Errorf("shapes %v, want 2500 each", shapes)
	}
	if checks < 5000/16/2 || checks > 5000/16*2 {
		t.Errorf("%d of 5000 jobs checked, want about 1 in 16", checks)
	}

	keys := map[string]bool{}
	for _, j := range draw("serve-plan-churn", 3, 500) {
		for k, v := range j.Speeds {
			if lo, hi := pmmSpeeds[k]*0.7, pmmSpeeds[k]*1.3; v < lo || v >= hi {
				t.Fatalf("speed %v outside [%v, %v)", v, lo, hi)
			}
		}
		keys[fmtSpeeds(j.Speeds)] = true
	}
	if len(keys) != 500 {
		t.Errorf("plan-churn: %d distinct speed vectors in 500 jobs, want 500", len(keys))
	}
}

func TestWarmSeedsDisjoint(t *testing.T) {
	run := map[int64]bool{}
	for _, j := range draw("serve-cluster-mix", 1, 2000) {
		run[j.Seed] = true
	}
	for _, j := range workloads["serve-cluster-mix"].warm(1) {
		if run[j.Seed] {
			t.Errorf("warm-up seed %d also appears in the timed stream", j.Seed)
		}
	}
}
