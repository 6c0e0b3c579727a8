package main

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"nonrep/internal/id"
	"nonrep/internal/invoke"
)

// opFunc performs one operation for one caller and checks its output. A
// nil result with a nil error is not allowed; an error counts the
// operation as failed.
type opFunc func(ctx context.Context, caller int, rng *rand.Rand) (*invoke.Result, error)

// session is one closed-loop interval: callers goroutines each issue
// their next operation only after the previous one returned, until the
// interval ends. Every caller waits for a reply before it sends again, so
// a slower system is offered less load — the load model of components
// blocked in Proxy.Call.
type session struct {
	callers int
	elapsed time.Duration // start until the last caller returned
	ok      []time.Duration
	runs    []id.Run         // one per successful operation
	sample  []*invoke.Result // seeded reservoir of successful results, for the evidence checks
	failed  int
	errs    []error // first few failures, for the report
}

// sampleCap bounds the results each caller keeps: enough to check
// evidence on, few enough not to grow the heap the run is measured on.
const sampleCap = 64

func (s *session) attempted() int { return len(s.ok) + s.failed }

func (s *session) opsPerSec() float64 {
	if s.elapsed <= 0 {
		return 0
	}
	return float64(len(s.ok)) / s.elapsed.Seconds()
}

// runSession drives op from callers goroutines for d. Each caller has
// its own seeded generator, so a seed fixes every caller's inputs.
func runSession(ctx context.Context, callers int, d time.Duration, seed int64, op opFunc) *session {
	type perCaller struct {
		ok     []time.Duration
		runs   []id.Run
		sample []*invoke.Result
		failed int
		errs   []error
	}
	out := make([]perCaller, callers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
			pick := rand.New(rand.NewSource(seed*7919 + int64(c)))
			pc := &out[c]
			for time.Now().Before(deadline) && ctx.Err() == nil {
				t0 := time.Now()
				res, err := op(ctx, c, rng)
				lat := time.Since(t0)
				if err != nil {
					pc.failed++
					if len(pc.errs) < 3 {
						pc.errs = append(pc.errs, err)
					}
					continue
				}
				pc.ok = append(pc.ok, lat)
				pc.runs = append(pc.runs, res.Run)
				if len(pc.sample) < sampleCap {
					pc.sample = append(pc.sample, res)
				} else if k := pick.Intn(len(pc.ok)); k < sampleCap {
					pc.sample[k] = res
				}
			}
		}(c)
	}
	wg.Wait()
	s := &session{callers: callers, elapsed: time.Since(start)}
	for i := range out {
		s.ok = append(s.ok, out[i].ok...)
		s.runs = append(s.runs, out[i].runs...)
		s.sample = append(s.sample, out[i].sample...)
		s.failed += out[i].failed
		s.errs = append(s.errs, out[i].errs...)
	}
	return s
}

// merge adds another interval's operations to s, as if the two had been
// one interval with a pause in the middle.
func (s *session) merge(o *session) {
	s.elapsed += o.elapsed
	s.ok = append(s.ok, o.ok...)
	s.runs = append(s.runs, o.runs...)
	s.sample = append(s.sample, o.sample...)
	s.failed += o.failed
	s.errs = append(s.errs, o.errs...)
}
