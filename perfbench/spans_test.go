package main

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func ms(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "job", Layer: "bench", Parent: -1, Start: 0, End: ms(100)},
		{Name: "a", Layer: "x", Parent: 0, Start: ms(10), End: ms(40)},
		// Overlaps a: the union, not the sum, is subtracted from the root.
		{Name: "b", Layer: "y", Parent: 0, Start: ms(30), End: ms(60)},
		// Sticks out past the root's end: only the part inside counts.
		{Name: "c", Layer: "y", Parent: 0, Start: ms(90), End: ms(120)},
		{Name: "a1", Layer: "z", Parent: 1, Start: ms(15), End: ms(20)},
		{Name: "a2", Layer: "z", Parent: 1, Start: ms(18), End: ms(25)},
	}
	want := []time.Duration{ms(100 - 50 - 10), ms(30 - 10), ms(30), ms(30), ms(5), ms(7)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestBlockingPathSumsToJob(t *testing.T) {
	spans := []span{
		{Name: "job", Layer: "bench", Parent: -1, Start: 0, End: ms(100)},
		{Name: "post", Layer: "router", Parent: 0, Start: 0, End: ms(10)},
		{Name: "handler", Layer: "serve", Parent: 1, Start: ms(2), End: ms(6)},
		{Name: "queue", Layer: "sched", Parent: 0, Start: ms(5), End: ms(20)},
		{Name: "dgemm[0,0]", Layer: "blas", Parent: 0, Start: ms(20), End: ms(90)},
		// Opened just before the job's own start, as a program span
		// created ahead of the timed call can be: it still owns its time.
		{Name: "check", Layer: "check", Parent: 0, Start: -ms(1), End: ms(0)},
		{Name: "multiply", Layer: "core", Parent: 0, Start: -ms(1), End: ms(95)},
	}
	got := blockingPath(spans)
	want := map[string]time.Duration{"router": ms(2), "serve": ms(3), "sched": ms(15), "blas": ms(70), "core": ms(5), "bench": ms(5)}
	var sum time.Duration
	for k, v := range got {
		sum += v
		if want[k] != v {
			t.Errorf("layer %s: %v, want %v", k, v, want[k])
		}
	}
	if sum != ms(100) {
		t.Errorf("layers sum to %v, want the job's 100ms", sum)
	}
}

func TestGraftKeepsTreeAndShiftsClock(t *testing.T) {
	rec := obs.NewRecorder()
	root := rec.Root("rank")
	child := root.Child("dgemm")
	child.Child("dgemm[0,0]").End()
	child.End()
	root.End()
	tr := newJobTrace(0)
	idx := tr.graft(0, rec.Spans(), time.Second)
	if len(idx) != 3 {
		t.Fatalf("grafted %d spans, want 3", len(idx))
	}
	s := tr.Spans
	if s[idx[0]].Parent != 0 || s[idx[1]].Parent != idx[0] || s[idx[2]].Parent != idx[1] {
		t.Errorf("parents %d %d %d, want 0 %d %d", s[idx[0]].Parent, s[idx[1]].Parent, s[idx[2]].Parent, idx[0], idx[1])
	}
	if s[idx[2]].Layer != "blas" || s[idx[1]].Layer != "core" || s[idx[0]].Layer != "netmpi" {
		t.Errorf("layers %s %s %s", s[idx[0]].Layer, s[idx[1]].Layer, s[idx[2]].Layer)
	}
	if s[idx[0]].Start > -ms(900) {
		t.Errorf("a remote clock 1s ahead should move spans 1s earlier, start %v", s[idx[0]].Start)
	}
}
