// Command perfbench is the repository's benchmark. It drives one workload
// through the program's public functions for a fixed time, checks every
// result it can afford to, and prints the workload's end-to-end metrics
// (untraced run) or per-layer metrics (traced run) as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload serve-cluster-mix --seed 7 --seconds 30 --trace 0
//
// The line before it is a detail record: host state, sample counts, the
// fixed tail percentile, and in a traced run the blocking-path split of
// job time by layer. See perfbench/README.md for the workloads, the
// metric definitions and how the bounds were set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how many times an untraced run builds its system; setup_s
// is the median, and the last build is measured.
const setupReps = 5

// traceSlice is how long the traced run keeps tracing on or off before
// switching, so that both halves see the same host episodes.
const traceSlice = time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type outcome struct {
	start, end time.Time
	cycle      time.Duration // issue to the client's next issue
	err        error
	tr         *jobTrace
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed the job stream is generated from")
	seconds := flag.Int("seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for k := range workloads {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", names)
		os.Exit(2)
	}
	res, detail, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printJSON(map[string]any{"detail": detail})
	printJSON(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run sets the workload up, measures it for window and assembles the
// result.
func run(w *workload, seed int64, window time.Duration, traced bool) (result, map[string]any, error) {
	host := startHost()
	detail := map[string]any{"workload": w.name, "seed": seed, "traced": traced, "host": host}

	reps := setupReps
	if traced {
		reps = 1
	}
	var sys system
	var setups []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		s, err := w.setup(seed, w.warm(seed), traced)
		if err != nil {
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r < reps-1 {
			s.close()
		} else {
			sys = s
		}
	}
	runtime.GC()

	st := newStream(w.name, "run", seed, w.mix)
	c0, p0 := sys.counters(), sampleProc()
	winStart := time.Now()
	outs := closedLoop(sys, st, w.clients, winStart.Add(window), traced)
	c1, p1 := sys.counters(), sampleProc()
	wrong, verr := sys.verify()
	checked := sys.checked()
	sys.close()

	// A run is correct when no checked result was wrong and at least one
	// result was checked.
	res := result{Correct: wrong == 0 && checked > 0, Attempted: len(outs), Metrics: map[string]metric{}}
	var lat []float64
	lastEnd := winStart
	for _, o := range outs {
		if o.end.After(lastEnd) {
			lastEnd = o.end
		}
		if o.err != nil {
			if res.Failed == 0 {
				detail["first_failure"] = o.err.Error()
			}
			res.Failed++
			continue
		}
		lat = append(lat, o.end.Sub(o.start).Seconds()*1e3)
	}
	res.Failed += wrong
	ok := float64(len(lat) - wrong)
	perJob := func(x float64) float64 {
		if ok <= 0 {
			return 0
		}
		return x / ok
	}
	detail["samples"] = len(lat)
	detail["tail_pct"] = w.tail
	detail["tail_beyond"] = len(lat) - rankOf(w.tail, len(lat))
	detail["checked"] = checked
	detail["window_s"] = lastEnd.Sub(winStart).Seconds()
	if verr != nil {
		detail["check_error"] = verr.Error()
	}

	if !traced {
		detail["setup_runs_s"] = setups
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["job_p50_ms"] = metric{percentile(lat, 50), "ms"}
		res.Metrics["job_tail_ms"] = metric{percentile(lat, w.tail), "ms"}
		res.Metrics["jobs_per_s"] = metric{ok / lastEnd.Sub(winStart).Seconds(), "1/s"}
		res.Metrics["ok_ratio"] = metric{ok / float64(max(res.Attempted, 1)), "ratio"}
		res.Metrics["cpu_ms_per_job"] = metric{perJob(float64(p1.cpu-p0.cpu) / 1e6), "ms"}
		res.Metrics["alloc_mb_per_op"] = metric{perJob(float64(p1.totalAlloc-p0.totalAlloc) / 1e6), "MB/op"}
		res.Metrics["rss_peak_mb"] = metric{peakRSSMB(), "MB"}
	} else {
		layers(res.Metrics, detail, w, outs, c0, c1, p0, p1, ok, seed)
	}
	host.finish()
	if traced {
		res.Metrics["netmpi.time_wait_end"] = metric{float64(host.TimeWaitEnd), "count"}
	}
	return res, detail, nil
}

// closedLoop runs clients that each send their next job only after the
// previous one completed, until the deadline. In a traced run tracing is
// switched on and off every traceSlice; a job is traced when tracing was
// on as it was issued. Each outcome's cycle runs from its issue to the
// client's next issue, so it includes the benchmark's own trace work.
func closedLoop(sys system, st *stream, clients int, deadline time.Time, traced bool) []outcome {
	var tracing atomic.Bool
	stop := make(chan struct{})
	var tick sync.WaitGroup
	if traced {
		tick.Add(1)
		go func() {
			defer tick.Done()
			t := time.NewTicker(traceSlice)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					tracing.Store(!tracing.Load())
				}
			}
		}()
	}

	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				j := st.next()
				var tr *jobTrace
				if tracing.Load() {
					tr = newJobTrace(j.Index)
				}
				start, end, err := sys.do(j, tr)
				if tr != nil {
					tr.Spans[0].Start, tr.Spans[0].End = start.Sub(tr.t0), end.Sub(tr.t0)
				}
				o := outcome{start: start, end: end, cycle: time.Since(start), err: err, tr: tr}
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	tick.Wait()
	return outs
}
