package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one interval of a traced job. Times are offsets from the job's
// start, so spans from the benchmark, the scheduler's recorder and the
// netmpi ranks share one axis.
type span struct {
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Parent int           `json:"parent"` // index in the job's spans, -1 for the root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// jobTrace holds one traced job: the benchmark's own spans around each
// layer call, the program's recorded spans grafted under them, and the
// per-job values read from the program's reports.
type jobTrace struct {
	ID   int                `json:"job"`
	Vals map[string]float64 `json:"vals,omitempty"`

	mu    sync.Mutex
	t0    time.Time
	Spans []span `json:"spans"`
}

// newJobTrace opens a trace whose root span, "job", starts now.
func newJobTrace(id int) *jobTrace {
	t := &jobTrace{ID: id, t0: time.Now(), Vals: map[string]float64{}}
	t.Spans = []span{{Name: "job", Layer: "bench", Parent: -1}}
	return t
}

// add records a finished span with explicit wall-clock bounds.
func (t *jobTrace) add(name, layer string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Spans = append(t.Spans, span{Name: name, Layer: layer, Parent: parent, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.Spans) - 1
}

// graft copies a program recorder's spans under parent, shifting their
// times by -shift (a remote rank's clock offset), and returns the index
// of each grafted span. Open spans are closed at their start.
func (t *jobTrace) graft(parent int, spans []obs.Span, shift time.Duration) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := make([]int, len(spans))
	for i, s := range spans {
		p := parent
		if s.Parent >= 0 && s.Parent < i {
			p = idx[s.Parent]
		}
		end := s.End
		if end.IsZero() {
			end = s.Start
		}
		t.Spans = append(t.Spans, span{
			Name: s.Name, Layer: layerOf(s.Name), Parent: p,
			Start: s.Start.Sub(t.t0) - shift, End: end.Sub(t.t0) - shift,
		})
		idx[i] = len(t.Spans) - 1
	}
	return idx
}

// layerOf names the module a program span belongs to.
func layerOf(name string) string {
	switch {
	case name == "mesh-dial" || name == "rank":
		return "netmpi"
	case strings.HasPrefix(name, "dgemm["):
		return "blas"
	case name == "bcastA" || name == "bcastB" || name == "dgemm" || name == "comm-wait" || name == "multiply":
		return "core"
	case strings.HasPrefix(name, "ckpt-"):
		return "recover"
	default:
		return "sched"
	}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Overlapping children count once, and
// a child's time outside its parent is not subtracted.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		var ivs [][2]time.Duration
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		out[i] = s.End - s.Start - unionLen(ivs)
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		if open && iv[0] <= curHi {
			curHi = max(curHi, iv[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv[0], iv[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// blockingPath splits the root span's interval among layers: each instant
// goes to the layer of the most recently started span open at that
// instant. The shares sum to the root's duration exactly; the root's own
// layer ("bench") receives the time no layer span covers, the residual.
func blockingPath(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	if len(spans) == 0 {
		return out
	}
	root := spans[0]
	cuts := []time.Duration{root.Start, root.End}
	for _, s := range spans[1:] {
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	for c := 1; c < len(cuts); c++ {
		lo, hi := max(cuts[c-1], root.Start), min(cuts[c], root.End)
		if hi <= lo {
			continue
		}
		owner := 0
		for i, s := range spans[1:] {
			if s.Start <= lo && s.End >= hi && (owner == 0 || s.Start >= spans[owner].Start) {
				owner = i + 1
			}
		}
		out[spans[owner].Layer] += hi - lo
	}
	return out
}
