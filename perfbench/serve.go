package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	summagen "repro"
	"repro/internal/device"
	"repro/internal/matrix"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/serve"
)

// serveSystem is the serving stack driven over HTTP: either one serve
// instance, or a router fronting several in-process instances. Each
// instance is configured like summagen-serve's flag defaults. Completion
// is observed through the instances' sched.Config.OnJobDone hook, so no
// polling interval shapes the measured latency.
type serveSystem struct {
	instances []*serve.Server
	planners  []*sched.Planner
	runners   []sched.Runner
	rt        *router.Router
	srv       *http.Server
	served    chan struct{} // closed when srv.Serve has returned
	url       string
	client    *http.Client

	mu      sync.Mutex
	pending map[int64]chan done // by job seed
	// handlers holds an entry for every traced job in flight, by job seed:
	// do adds it before the POST, and the handler wrapper fills in the
	// handler's start and end.
	handlers map[int64][2]time.Time
	checks   []sched.JobView // completed jobs of the check sample
}

type done struct {
	v  sched.JobView
	at time.Time
}

// jobWait bounds how long a client waits for a job's completion before
// counting it failed.
const jobWait = 60 * time.Second

// setupServe builds the stack: instances serve jobs on the named runtime
// ("inproc" or "netmpi"); with more than one instance a router using
// plan-key affinity fronts them. warm jobs run to completion before
// setup returns. traced wraps each instance's handler to time traced
// jobs; an untraced run serves through the instances' own handlers.
func setupServe(instances int, runtime string, warm []job, traced bool) (*serveSystem, error) {
	s := &serveSystem{pending: map[int64]chan done{}, handlers: map[int64][2]time.Time{}}
	var backends []*router.Backend
	var root http.Handler
	for i := 0; i < instances; i++ {
		var runner sched.Runner = &sched.InprocRunner{}
		if runtime == "netmpi" {
			runner = &sched.NetmpiRunner{OpTimeout: 10 * time.Second}
		}
		planner := &sched.Planner{Platform: device.HCLServer1()}
		srv, err := serve.New(serve.Config{
			InstanceID: fmt.Sprintf("i%d", i),
			Sched: sched.Config{
				Workers: 2, QueueCap: 64, SmallN: 256, BatchMax: 8,
				Planner: planner, Runner: runner,
				MaxRecoveryAttempts: 2, RecoveryBackoff: 100 * time.Millisecond,
				Observe:   true,
				OnJobDone: s.onDone,
			},
			MaxN: 4096, MaxVerifyN: 1024,
			SampleInterval: 10 * time.Second, SampleWindow: 30 * time.Minute,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.instances = append(s.instances, srv)
		s.planners = append(s.planners, planner)
		s.runners = append(s.runners, runner)
		h := srv.Handler()
		if traced {
			h = s.timeHandler(h)
		}
		backends = append(backends, router.NewLocalBackend(fmt.Sprintf("i%d", i), h))
		root = h
	}
	if instances > 1 {
		rt, err := router.New(router.Config{Backends: backends, Policy: router.PlanAffinity{}})
		if err != nil {
			s.close()
			return nil, err
		}
		s.rt = rt
		root = rt.Handler()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv = &http.Server{Handler: root}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	s.url = "http://" + ln.Addr().String() + "/jobs"
	// At most two clients, so two keep-alive connections: every request
	// reuses one.
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}}

	errs := make([]error, len(warm))
	var wg sync.WaitGroup
	for i, j := range warm {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			_, _, errs[i] = s.do(j, nil)
		}(i, j)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	s.checks = nil
	return s, nil
}

// onDone is every instance's completion hook.
func (s *serveSystem) onDone(v sched.JobView) {
	at := time.Now()
	s.mu.Lock()
	ch := s.pending[v.Spec.Seed]
	delete(s.pending, v.Spec.Seed)
	s.mu.Unlock()
	if ch != nil {
		ch <- done{v, at}
	}
}

// timeHandler wraps an instance's handler so that each POST /jobs of a
// traced job records its handler time under the job's seed. Whether a job
// is traced is decided once, by do, so every traced job gets exactly one
// handler span and no other job leaves one behind.
func (s *serveSystem) timeHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req serve.SubmitRequest
		_ = json.Unmarshal(body, &req) // the handler reports a bad body itself
		h.ServeHTTP(w, r)
		end := time.Now()
		s.mu.Lock()
		if _, traced := s.handlers[req.Seed]; traced {
			s.handlers[req.Seed] = [2]time.Time{start, end}
		}
		s.mu.Unlock()
	})
}

// do submits one job and waits for its completion. The latency runs from
// the POST to the completion hook.
func (s *serveSystem) do(j job, tr *jobTrace) (time.Time, time.Time, error) {
	body, err := json.Marshal(serve.SubmitRequest{N: j.N, Shape: j.Shape, Speeds: j.Speeds, Seed: j.Seed})
	if err != nil {
		return time.Now(), time.Now(), err
	}
	ch := make(chan done, 1)
	s.mu.Lock()
	s.pending[j.Seed] = ch
	if tr != nil {
		s.handlers[j.Seed] = [2]time.Time{}
	}
	s.mu.Unlock()
	unregister := func() {
		s.mu.Lock()
		delete(s.pending, j.Seed)
		delete(s.handlers, j.Seed)
		s.mu.Unlock()
	}

	start := time.Now()
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		unregister()
		return start, time.Now(), err
	}
	// Drain the body so the keep-alive connection is reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	posted := time.Now()
	if resp.StatusCode != http.StatusAccepted {
		unregister()
		return start, posted, fmt.Errorf("POST /jobs: status %d", resp.StatusCode)
	}
	timer := time.NewTimer(jobWait)
	defer timer.Stop()
	var d done
	select {
	case d = <-ch:
	case <-timer.C:
		unregister()
		return start, time.Now(), fmt.Errorf("job seed %d: no completion within %v", j.Seed, jobWait)
	}
	if d.v.Err != nil {
		unregister()
		return start, d.at, d.v.Err
	}
	if d.v.Digest == "" || d.v.Plan == nil {
		unregister()
		return start, d.at, fmt.Errorf("job seed %d: done without digest or plan", j.Seed)
	}
	if j.Check {
		s.mu.Lock()
		s.checks = append(s.checks, d.v)
		s.mu.Unlock()
	}
	if tr != nil {
		s.traceJob(tr, d.v, start, posted)
	}
	return start, d.at, nil
}

// traceJob grafts one completed job's spans under the trace: the client
// POST with the instance handler inside it, the scheduler's span tree,
// and the netmpi ranks' shipped trees under the run attempt.
func (s *serveSystem) traceJob(tr *jobTrace, v sched.JobView, start, posted time.Time) {
	post := tr.add("post", "http", 0, start, posted)
	if s.rt != nil {
		tr.Spans[post].Layer = "router"
	}
	s.mu.Lock()
	h := s.handlers[v.Spec.Seed]
	delete(s.handlers, v.Spec.Seed)
	s.mu.Unlock()
	if !h[0].IsZero() {
		tr.add("handler", "serve", post, h[0], h[1])
	}
	tr.Vals["sched.batch_mean"] = float64(v.BatchSize)
	if v.Trace == nil {
		return
	}
	spans := v.Trace.Spans()
	idx := tr.graft(0, spans, 0)
	// The scheduler records run attempts and recoveries as siblings of the
	// "run" span that contains them; nest them under it, so that run's self
	// time is the scheduler's own part of running a job.
	run, attempt := -1, -1
	for i, sp := range spans {
		switch sp.Name {
		case "run":
			run = idx[i]
		case "attempt", "recover":
			if run >= 0 && sp.Parent == 0 {
				tr.Spans[idx[i]].Parent = run
			}
			if sp.Name == "attempt" {
				attempt = idx[i]
			}
		}
	}
	if v.Report == nil {
		return
	}
	if attempt >= 0 {
		for _, rt := range v.Report.RemoteTraces {
			tr.graft(attempt, rt.Spans, time.Duration(rt.OffsetSeconds*float64(time.Second)))
		}
	}
	recordCore(tr, v.Report, v.Report.Imbalance)
}

// verify recomputes every job of the check sample with this build's
// summagen.Multiply, under the plan the service returned and the inputs
// its seed generates, and compares digests.
func (s *serveSystem) verify() (int, error) {
	wrong := 0
	var first error
	for _, v := range s.checks {
		n := v.Spec.N
		rng := rand.New(rand.NewSource(v.Spec.Seed))
		a := matrix.Random(n, n, rng)
		b := matrix.Random(n, n, rng)
		c := matrix.New(n, n)
		if _, err := summagen.Multiply(a, b, c, summagen.Config{Layout: v.Plan.Layout}); err != nil {
			return wrong + 1, fmt.Errorf("recomputing job seed %d: %w", v.Spec.Seed, err)
		}
		if got := sched.MatrixDigest(c); got != v.Digest {
			wrong++
			if first == nil {
				first = fmt.Errorf("job seed %d (n=%d, shape %s): service digest %s, recomputed %s",
					v.Spec.Seed, n, v.Plan.Shape, v.Digest, got)
			}
		}
	}
	return wrong, first
}

// checked is the size of the check sample.
func (s *serveSystem) checked() int { return len(s.checks) }

// counters sums the instances' cumulative plan-cache and transport
// counters.
func (s *serveSystem) counters() map[string]float64 {
	c := map[string]float64{}
	for _, p := range s.planners {
		hits, misses := p.CacheStats()
		c["plan_hits"] += float64(hits)
		c["plan_misses"] += float64(misses)
	}
	for _, r := range s.runners {
		nr, ok := r.(sched.NetReporter)
		if !ok {
			continue
		}
		nc, vols := nr.NetMetrics()
		for _, p := range nc.PerPeer {
			c["net_bytes"] += float64(p.BytesSent)
			c["net_frames"] += float64(p.FramesSent)
			c["net_retries"] += float64(p.Retries)
		}
		for _, v := range vols {
			c["vol_predicted"] += float64(v.PredictedBytes)
			c["vol_observed"] += float64(v.ObservedBytes)
		}
	}
	return c
}

// close stops the HTTP server, the router and every instance, waiting
// for in-flight jobs.
func (s *serveSystem) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.srv != nil {
		_ = s.srv.Shutdown(ctx) // a timeout here leaves nothing to release
		<-s.served
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.rt != nil {
		s.rt.Close()
	}
	for _, srv := range s.instances {
		_ = srv.Drain(ctx) // drains jobs already finished in a closed loop
	}
}
