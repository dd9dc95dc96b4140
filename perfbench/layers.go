package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	summagen "repro"
	"repro/internal/blas"
	"repro/internal/matrix"
)

// perLayer lists the traced run's metrics with their units. A metric of a
// layer the workload does not exercise reads 0 (see README.md).
var perLayer = []struct{ name, unit string }{
	{"blas.gflops", "GFLOPS"},
	{"blas.gflops_1t", "GFLOPS"},
	{"core.compute_ms", "ms"},
	{"core.comm_ms", "ms"},
	{"core.dgemm_ms", "ms"},
	{"core.bcast_ms", "ms"},
	{"core.commwait_ms", "ms"},
	{"core.imbalance", "ratio"},
	{"sched.queue_ms", "ms"},
	{"sched.plan_ms", "ms"},
	{"sched.run_ms", "ms"},
	{"sched.digest_ms", "ms"},
	{"sched.batch_mean", "jobs"},
	{"sched.plan_hit_ratio", "ratio"},
	{"partition.optimal_shape_ms", "ms"},
	{"netmpi.mesh_dial_ms", "ms"},
	{"netmpi.bytes_per_job", "B"},
	{"netmpi.frames_per_job", "count"},
	{"netmpi.volume_ratio", "ratio"},
	{"netmpi.retries", "count"},
	{"netmpi.time_wait_end", "count"},
	{"recover.ckpt_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"router.hop_ms", "ms"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mb_per_job", "MB"},
	{"obs.trace_overhead", "ratio"},
	{"bench.job_ms", "ms"},
	{"bench.residual_ms", "ms"},
}

// selfMetric maps a span name to the metric its self time adds to.
var selfMetric = map[string]string{
	"queue":      "sched.queue_ms",
	"batch-wait": "sched.queue_ms",
	"plan":       "sched.plan_ms",
	"run":        "sched.run_ms",
	"attempt":    "sched.run_ms",
	"digest":     "sched.digest_ms",
	"mesh-dial":  "netmpi.mesh_dial_ms",
	"handler":    "serve.handler_ms",
}

// layers fills the traced run's per-layer metrics: self times and report
// values averaged over the traced jobs, counter deltas over the window,
// and the stand-alone blas and partition timings.
func layers(m map[string]metric, detail map[string]any, w *workload, outs []outcome,
	c0, c1 map[string]float64, p0, p1 procSample, ok float64, seed int64) {
	sums := map[string]float64{}
	valSums, valCounts := map[string]float64{}, map[string]float64{}
	path := map[string]float64{}
	var traced []*jobTrace
	// Client time spent on traced and untraced jobs, issue to next issue,
	// and the correct results each gave.
	var cycOn, cycOff, nOn, nOff float64
	for _, o := range outs {
		if o.tr == nil {
			cycOff += o.cycle.Seconds()
		} else {
			cycOn += o.cycle.Seconds()
		}
		if o.err != nil {
			continue
		}
		if o.tr == nil {
			nOff++
			continue
		}
		nOn++
		tr := o.tr
		traced = append(traced, tr)
		self := selfTimes(tr.Spans)
		for i, s := range tr.Spans {
			ms := float64(self[i]) / 1e6
			switch {
			case i == 0:
				sums["bench.job_ms"] += float64(s.End-s.Start) / 1e6
				sums["bench.residual_ms"] += ms
			case s.Name == "post":
				sums["serve.submit_ms"] += float64(s.End-s.Start) / 1e6
				if s.Layer == "router" {
					sums["router.hop_ms"] += ms
				}
			case selfMetric[s.Name] != "":
				sums[selfMetric[s.Name]] += ms
			}
		}
		for k, v := range tr.Vals {
			valSums[k] += v
			valCounts[k]++
		}
		for layer, d := range blockingPath(tr.Spans) {
			path[layer] += float64(d) / 1e6
		}
	}
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	if nOn > 0 {
		for k, v := range sums {
			set(k, v/nOn)
		}
		for k := range path {
			path[k] /= nOn
		}
	}
	for k, v := range valSums {
		set(k, v/valCounts[k])
	}
	d := func(k string) float64 { return c1[k] - c0[k] }
	if lookups := d("plan_hits") + d("plan_misses"); lookups > 0 {
		set("sched.plan_hit_ratio", d("plan_hits")/lookups)
	}
	if ok > 0 {
		set("netmpi.bytes_per_job", d("net_bytes")/ok)
		set("netmpi.frames_per_job", d("net_frames")/ok)
		set("runtime.alloc_mb_per_job", float64(p1.totalAlloc-p0.totalAlloc)/1e6/ok)
	}
	if pred := d("vol_predicted"); pred > 0 {
		set("netmpi.volume_ratio", d("vol_observed")/pred)
	}
	set("netmpi.retries", d("net_retries"))
	if p1.allCPU > p0.allCPU {
		set("runtime.gc_cpu_frac", (p1.gcCPU-p0.gcCPU)/(p1.allCPU-p0.allCPU))
	}
	if nOn > 0 && nOff > 0 {
		// Traced over untraced throughput. A cycle includes the benchmark's
		// own span grafting after the job's result, so that cost shows.
		set("obs.trace_overhead", (nOn/cycOn)/(nOff/cycOff))
	}
	set("blas.gflops", blasGflops(seed, runtime.GOMAXPROCS(0)))
	set("blas.gflops_1t", blasGflops(seed, 1))
	set("partition.optimal_shape_ms", optimalShapeMs())

	detail["traced_jobs"] = int(nOn)
	detail["untraced_jobs"] = int(nOff)
	detail["blocking_path_ms"] = path
	if job := m["bench.job_ms"].Value; job > 0 {
		detail["accounted_share"] = 1 - m["bench.residual_ms"].Value/job
	}
	if err := writeTraces(w.name, seed, traced); err != nil {
		detail["trace_file_error"] = err.Error()
	}
}

// writeTraces saves the traced jobs' spans, kept in memory during the
// run, under .bench_build/traces in the working directory.
func writeTraces(name string, seed int64, traced []*jobTrace) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(traced)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)), b, 0o644)
}

// standaloneReps is how often each stand-alone timing repeats; the
// median is reported.
const standaloneReps = 5

// blasGflops times blas.Dgemm at n=512 with the given GOMAXPROCS (the
// kernel splits its work across that many goroutines).
func blasGflops(seed int64, procs int) float64 {
	const n = 512
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(seed))
	a, b, c := matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.New(n, n)
	var secs []float64
	for r := 0; r < standaloneReps; r++ {
		t0 := time.Now()
		if err := blas.Dgemm(n, n, n, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride); err != nil {
			return 0
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return 2 * n * n * n / median(secs) / 1e9
}

// optimalShapeMs times the planner's exhaustive shape search at n=256
// over HCLServer1's CPM speeds.
func optimalShapeMs() float64 {
	const n = 256
	areas, err := summagen.AreasCPM(n, pmmSpeeds)
	if err != nil {
		return 0
	}
	var ms []float64
	for r := 0; r < standaloneReps; r++ {
		t0 := time.Now()
		if _, _, err := summagen.OptimalShape(n, areas, 0); err != nil {
			return 0
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	return median(ms)
}
