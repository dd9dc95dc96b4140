package main

import "testing"

func TestRankOf(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want int
	}{
		{50, 10, 5}, {80, 60, 48}, {95, 250, 238}, {99, 1200, 1188},
		{99.9, 10000, 9990}, {0, 5, 1}, {100, 5, 5},
	} {
		if got := rankOf(c.p, c.n); got != c.want {
			t.Errorf("rankOf(%v, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5 (nearest rank)", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty input should give 0")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}
