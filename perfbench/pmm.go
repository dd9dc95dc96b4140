package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	summagen "repro"
	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// pmmSystem is the HPC library caller: one closed loop of
// summagen.Multiply on the in-process runtime, with the inputs, the
// layout and a reference product built in setup.
type pmmSystem struct {
	a, b, c, ref *matrix.Dense
	layout       *summagen.Layout

	mu       sync.Mutex
	runs     int
	wrong    int
	badCells int
	maxErr   float64 // NaN when a cell was NaN or left unwritten
}

// pmmSpeeds are HCLServer1's CPM relative speeds (CPU, GPU, Xeon Phi).
var pmmSpeeds = []float64{1, 2, 0.9}

// verifyTol is the tolerance sched's Verify uses against its serial
// reference.
const verifyTol = 1e-9

func setupPMM(n int, seed int64) (system, error) {
	areas, err := summagen.AreasCPM(n, pmmSpeeds)
	if err != nil {
		return nil, err
	}
	layout, err := summagen.NewLayout(summagen.SquareCorner, n, areas)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	s := &pmmSystem{a: matrix.Random(n, n, rng), b: matrix.Random(n, n, rng), c: matrix.New(n, n), ref: matrix.New(n, n), layout: layout}
	if err := blas.Dgemm(n, n, n, 1, s.a.Data, s.a.Stride, s.b.Data, s.b.Stride, 0, s.ref.Data, s.ref.Stride); err != nil {
		return nil, fmt.Errorf("reference product: %w", err)
	}
	// Warm-up: one multiply, checked like every timed one.
	if _, _, err := s.do(job{}, nil); err != nil {
		return nil, fmt.Errorf("warm-up multiply: %w", err)
	}
	if s.wrong > 0 {
		return nil, fmt.Errorf("warm-up multiply: result differs from the reference by %g", s.maxErr)
	}
	return s, nil
}

// do runs one multiply into a poisoned C and compares it with the
// reference, so a run that skips writing part of C cannot pass on the
// previous job's values.
func (s *pmmSystem) do(_ job, tr *jobTrace) (time.Time, time.Time, error) {
	s.c.Fill(math.NaN())
	cfg := summagen.Config{Layout: s.layout}
	var rec *obs.Recorder
	if tr != nil {
		rec = obs.NewRecorder()
		cfg.Span = rec.Root("multiply")
	}
	start := time.Now()
	rep, err := summagen.Multiply(s.a, s.b, s.c, cfg)
	mid := time.Now()
	if err != nil {
		return start, mid, err
	}
	bad, diff := mismatches(s.c, s.ref, verifyTol)
	end := time.Now()
	s.mu.Lock()
	s.runs++
	if bad > 0 {
		s.wrong++
		s.badCells += bad
		if diff > s.maxErr || math.IsNaN(diff) {
			s.maxErr = diff
		}
	}
	s.mu.Unlock()
	if tr != nil {
		cfg.Span.End()
		spans := rec.Spans()
		tr.graft(0, spans, 0)
		tr.add("check", "check", 0, mid, end)
		recordCore(tr, rep, obs.AnalyzeStageSpans(spans))
	}
	return start, end, nil
}

// mismatches counts the cells of c that differ from ref by more than
// sched's Verify tolerance, tol scaled by 1 + the larger magnitude, and
// returns the largest difference. The test is written so that a NaN cell
// fails it (matrix.EqualApprox passes NaN, since every comparison with
// NaN is false), and diff is then NaN.
func mismatches(c, ref *matrix.Dense, tol float64) (bad int, diff float64) {
	for i := 0; i < c.Rows; i++ {
		rc, rr := c.Row(i), ref.Row(i)
		for j, x := range rc {
			y := rr[j]
			d := math.Abs(x - y)
			if d <= tol*(1+math.Max(math.Abs(x), math.Abs(y))) {
				continue
			}
			bad++
			if d > diff || math.IsNaN(d) {
				diff = d
			}
		}
	}
	return bad, diff
}

func (s *pmmSystem) verify() (int, error) {
	if s.wrong > 0 {
		return s.wrong, fmt.Errorf("%d multiplies differed from the reference in %d cells (max abs diff %g)", s.wrong, s.badCells, s.maxErr)
	}
	return 0, nil
}

func (s *pmmSystem) checked() int                 { return s.runs }
func (s *pmmSystem) counters() map[string]float64 { return nil }
func (s *pmmSystem) close()                       {}

// recordCore stores the engine's per-job numbers on a trace: the
// report's compute and communication maxima, and the stage breakdown of
// the slowest rank for each stage.
func recordCore(tr *jobTrace, rep *summagen.Report, imb *obs.ImbalanceReport) {
	if rep != nil {
		tr.Vals["core.compute_ms"] = rep.ComputeTime * 1e3
		tr.Vals["core.comm_ms"] = rep.CommTime * 1e3
	}
	if imb == nil {
		return
	}
	var dgemm, bcast, wait, ckpt float64
	for _, r := range imb.Ranks {
		dgemm = math.Max(dgemm, r.DgemmCellSeconds)
		bcast = math.Max(bcast, r.BcastASeconds+r.BcastBSeconds)
		wait = math.Max(wait, r.CommWaitSeconds)
		ckpt = math.Max(ckpt, r.CkptSeconds)
	}
	tr.Vals["core.dgemm_ms"] = dgemm * 1e3
	tr.Vals["core.bcast_ms"] = bcast * 1e3
	tr.Vals["core.commwait_ms"] = wait * 1e3
	tr.Vals["core.imbalance"] = imb.ImbalanceRatio
	tr.Vals["recover.ckpt_ms"] = ckpt * 1e3
}
