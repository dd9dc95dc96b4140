package main

import (
	"hash/fnv"
	"math/rand"
	"sync"
)

// job is one generated request. The program receives only these fields
// (as a summagen.Multiply call or a POST /jobs body); nothing else about
// the run reaches it.
type job struct {
	Index  int
	N      int
	Shape  string // "" lets the planner search ("auto")
	Speeds []float64
	Seed   int64
	// Check marks the job for the post-window digest recomputation. The
	// sample is drawn by the generator, so it is fixed by the seed and not
	// by timing.
	Check bool
}

// mix describes how a workload draws its jobs. Sizes and shapes are dealt
// from a shuffled deck holding every (size, shape) pair once, so every
// run sends the same mix, whatever its seed: with sizes {128, 128, 256,
// 256, 512} each deck of 10 jobs costs the same, where independent draws
// would vary the number of large jobs, and with it the work per run, by
// about 5% between seeds.
type mix struct {
	sizes   []int // repeats set the weights
	shapes  []string
	speeds  []float64 // base relative speeds; nil sends none
	jitter  float64   // each speed is scaled by a factor in [1-jitter, 1+jitter)
	checkOf int       // one job in checkOf (on average) is checked; 1 checks all
}

// stream is a workload's seeded job sequence. Clients share it, so the
// sequence of jobs is fixed by the seed even though which client sends
// which job depends on timing.
type stream struct {
	mu   sync.Mutex
	rng  *rand.Rand
	m    mix
	i    int
	tag  int64
	deck []job // undealt (N, Shape) pairs
}

// newStream seeds a stream from the workload name, a purpose label
// ("run" or "warm") and the --seed argument.
func newStream(workload, purpose string, seed int64, m mix) *stream {
	h := fnv.New64a()
	h.Write([]byte(workload + "/" + purpose))
	tag := int64(0)
	if purpose != "run" {
		tag = 1 << 61 // warm-up job seeds never collide with timed ones
	}
	return &stream{rng: rand.New(rand.NewSource(int64(h.Sum64()) ^ seed)), m: m, tag: tag}
}

func (s *stream) next() job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.deck) == 0 {
		shapes := s.m.shapes
		if len(shapes) == 0 {
			shapes = []string{""}
		}
		for _, n := range s.m.sizes {
			for _, shape := range shapes {
				s.deck = append(s.deck, job{N: n, Shape: shape})
			}
		}
		s.rng.Shuffle(len(s.deck), func(a, b int) { s.deck[a], s.deck[b] = s.deck[b], s.deck[a] })
	}
	j := s.deck[len(s.deck)-1]
	s.deck = s.deck[:len(s.deck)-1]
	j.Index = s.i
	s.i++
	if s.m.speeds != nil {
		j.Speeds = make([]float64, len(s.m.speeds))
		for k, v := range s.m.speeds {
			j.Speeds[k] = v * (1 - s.m.jitter + 2*s.m.jitter*s.rng.Float64())
		}
	}
	// The low 20 bits carry the index, so seeds are unique within a run
	// (completions are matched back to their request by seed).
	j.Seed = s.tag | s.rng.Int63n(1<<40)<<20 | int64(j.Index+1)&(1<<20-1)
	j.Check = j.Index == 0 || s.rng.Intn(s.m.checkOf) == 0
	return j
}
