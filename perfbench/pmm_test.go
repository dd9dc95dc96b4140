package main

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// poisonedCopy returns a C the way pmmSystem.do leaves it before the
// multiply writes: every cell NaN. write copies ref into the cells it
// selects, as a multiply that writes only those cells would.
func poisonedCopy(ref *matrix.Dense, write func(i, j int) bool) *matrix.Dense {
	c := matrix.New(ref.Rows, ref.Cols)
	c.Fill(math.NaN())
	for i := 0; i < ref.Rows; i++ {
		for j, v := range ref.Row(i) {
			if write(i, j) {
				c.Row(i)[j] = v
			}
		}
	}
	return c
}

func TestMismatchesRejectsNaNAndUnwrittenCells(t *testing.T) {
	ref := matrix.Random(32, 32, rand.New(rand.NewSource(1)))
	all := func(int, int) bool { return true }

	if bad, _ := mismatches(poisonedCopy(ref, all), ref, verifyTol); bad != 0 {
		t.Fatalf("exact result: %d bad cells, want 0", bad)
	}

	oneNaN := poisonedCopy(ref, func(i, j int) bool { return i != 3 || j != 7 })
	if bad, diff := mismatches(oneNaN, ref, verifyTol); bad != 1 || !math.IsNaN(diff) {
		t.Errorf("one NaN cell: bad=%d diff=%v, want 1 and NaN", bad, diff)
	}

	// A multiply that skips one 8x8 block leaves it poisoned.
	block := poisonedCopy(ref, func(i, j int) bool { return i < 8 || i >= 16 || j < 24 })
	if bad, _ := mismatches(block, ref, verifyTol); bad != 64 {
		t.Errorf("unwritten 8x8 block: bad=%d, want 64", bad)
	}

	off := poisonedCopy(ref, all)
	off.Row(5)[5] += 1e-6
	if bad, diff := mismatches(off, ref, verifyTol); bad != 1 || diff < 1e-7 {
		t.Errorf("one cell off by 1e-6: bad=%d diff=%v, want 1 and about 1e-6", bad, diff)
	}

	near := poisonedCopy(ref, all)
	near.Row(5)[5] += 1e-12
	if bad, _ := mismatches(near, ref, verifyTol); bad != 0 {
		t.Errorf("rounding-level difference: %d bad cells, want 0", bad)
	}
}
