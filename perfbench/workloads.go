package main

import (
	"time"
)

// system is one workload's program under test, built by setup.
type system interface {
	// do runs one job to its checked result and returns when it was
	// issued and when its result was available. tr, when non-nil,
	// receives the job's spans.
	do(j job, tr *jobTrace) (start, end time.Time, err error)
	// verify checks the results kept for checking after the timed
	// window and returns how many were wrong.
	verify() (wrong int, err error)
	// checked is how many results verify and do compared in total.
	checked() int
	// counters is a snapshot of the program's cumulative counters.
	counters() map[string]float64
	close()
}

// workload is one input mix of the benchmark.
type workload struct {
	name    string
	clients int
	// tail is the percentile job_tail_ms reports, fixed per workload so
	// that the metric keeps one meaning across runs. It is the highest
	// percentile that leaves at least 10 samples beyond it in the slowest
	// 35-second runs seen (README.md gives the counts).
	tail float64
	mix  mix
	// warm lists the jobs setup runs before timing starts. setup builds
	// the system; traced asks it to install the hooks that time traced
	// jobs.
	warm  func(seed int64) []job
	setup func(seed int64, warm []job, traced bool) (system, error)
}

var workloads = map[string]*workload{
	// The HPC library caller: blas and core do nearly all the work, and
	// HTTP, sched, the planner and the wire are bypassed.
	"pmm-n1024": {
		name: "pmm-n1024", clients: 1, tail: 80,
		mix:   mix{sizes: []int{1024}, checkOf: 1},
		warm:  func(int64) []job { return nil },
		setup: func(seed int64, _ []job, _ bool) (system, error) { return setupPMM(1024, seed) },
	},
	// The clustered service on netmpi: small jobs whose per-job fixed
	// costs (two HTTP hops, admission, a fresh mesh, framed broadcasts,
	// checkpoints, the digest) are a large share of their time. All six
	// plan keys are warmed, so the planner is bypassed.
	"serve-cluster-mix": {
		name: "serve-cluster-mix", clients: 2, tail: 99,
		mix: mix{sizes: []int{128, 128, 256, 256, 512}, shapes: []string{"square-corner", ""}, checkOf: 16},
		warm: func(seed int64) []job {
			st := newStream("serve-cluster-mix", "warm", seed, mix{sizes: []int{128}, checkOf: 1})
			var js []job
			for _, n := range []int{128, 256, 512} {
				for _, shape := range []string{"square-corner", ""} {
					j := st.next()
					j.N, j.Shape = n, shape
					js = append(js, j)
				}
			}
			return js
		},
		setup: func(_ int64, warm []job, traced bool) (system, error) { return setupServe(2, "netmpi", warm, traced) },
	},
	// The same sched layer used differently: every job carries fresh
	// measured speeds and no shape, so nearly every job misses the plan
	// cache and pays the exhaustive shape search. One client: with two,
	// two searches and the GC they drive compete for the host's two CPUs,
	// and runs spread about twice as much.
	"serve-plan-churn": {
		name: "serve-plan-churn", clients: 1, tail: 90,
		mix: churnMix,
		warm: func(seed int64) []job {
			st := newStream("serve-plan-churn", "warm", seed, churnMix)
			return []job{st.next()}
		},
		setup: func(_ int64, warm []job, traced bool) (system, error) {
			return setupServe(1, "inproc", warm, traced)
		},
	},
}

// churnMix draws speeds within ±30% of HCLServer1's CPM speeds.
var churnMix = mix{sizes: []int{256}, speeds: pmmSpeeds, jitter: 0.3, checkOf: 4}
