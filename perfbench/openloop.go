package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"hummer/internal/loadgen"
)

// sample is one request's measurement.
type sample struct {
	class   int
	out     outcome
	lag     time.Duration // how late the generator dispatched it
	stream  bool
	written bool // a source write, not a read
}

// loadgenClasses gives loadgen.Schedule the mix's names and weights.
func loadgenClasses(mix []class) []loadgen.Class {
	lc := make([]loadgen.Class, len(mix))
	for i, c := range mix {
		lc[i] = loadgen.Class{Name: c.name, Weight: c.weight}
	}
	return lc
}

// schedule draws a seeded Poisson arrival schedule at rate for dur.
func schedule(seed int64, mix []class, rate float64, dur time.Duration) ([]loadgen.Request, error) {
	return loadgen.Schedule(loadgen.Config{
		Seed:    seed,
		Mode:    loadgen.ModeOpen,
		Arrival: loadgen.ArrivalPoisson,
		Classes: loadgenClasses(mix),
		Phases:  []loadgen.Phase{{Duration: dur, Rate: rate}},
	})
}

// runOpen fires the schedule open loop into out (one sample per
// request, allocated by the caller): each request is dispatched on its
// own goroutine when due, whether or not earlier ones finished, and
// every timing runs from the due time, so a stall shows as latency on
// the requests queued behind it. It returns once every request ended.
func runOpen(ctx context.Context, mix []class, sched []loadgen.Request, out []sample) {
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for i, r := range sched {
		due := start.Add(r.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		kind := mix[r.Class].call.kind
		out[i] = sample{class: r.Class, lag: time.Since(due), stream: kind == kindStream, written: kind == kindWrite}
		wg.Add(1)
		go func(i int, c *class, due time.Time) {
			defer wg.Done()
			out[i].out = c.issue(ctx, due)
		}(i, &mix[r.Class], due)
	}
	wg.Wait()
}

// phaseStats summarizes one open-loop phase.
type phaseStats struct {
	// lat holds the successful requests' latencies in due order.
	lat, ttfr, writes, lag []time.Duration
	attempted, failed      int
	// heapPeakMB is the nominal phase's peak live heap without the
	// generator's own data, genHeapMB.
	heapPeakMB, genHeapMB float64
}

func summarize(samples []sample) phaseStats {
	ps := phaseStats{attempted: len(samples)}
	for _, s := range samples {
		ps.lag = append(ps.lag, s.lag)
		if !s.out.ok() {
			ps.failed++
			continue
		}
		ps.lat = append(ps.lat, s.out.latency)
		if s.stream {
			ps.ttfr = append(ps.ttfr, s.out.ttfr)
		}
		if s.written {
			ps.writes = append(ps.writes, s.out.latency)
		}
	}
	return ps
}

// maxRate bounds the request sequence a saturation phase draws: more
// requests per second than any mix here completes on one core.
const maxRate = 2500

// closedSeq draws a seeded sequence of n requests of the mix, for a
// closed loop.
func closedSeq(seed int64, mix []class, n int) ([]loadgen.Request, error) {
	return loadgen.Schedule(loadgen.Config{Seed: seed, Mode: loadgen.ModeClosed, Classes: loadgenClasses(mix), Requests: n})
}

// saturation is what a closed-loop saturation phase measured.
type saturation struct {
	// qps is requests completed per second with every connection kept
	// busy: the rate above which an open loop's backlog grows.
	qps float64
	// rowsPerSec is the source rows those requests read per second.
	rowsPerSec float64
	samples    []sample
}

// runSaturation keeps conns requests in flight, each client sending the
// next request of seq as soon as its previous one completed, until seq
// or the budget runs out.
func runSaturation(ctx context.Context, mix []class, seq []loadgen.Request, conns int, budget time.Duration) saturation {
	var next atomic.Int64
	out := make([]sample, len(seq))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(budget)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				c := seq[i].Class
				out[i] = sample{class: c, out: mix[c].issue(ctx, time.Now())}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := min(int(next.Load()), len(seq))
	sat := saturation{samples: out[:n]}
	rows, done := 0, 0
	for _, s := range sat.samples {
		if s.out.ok() {
			done++
			rows += mix[s.class].rows
		}
	}
	sat.qps = float64(done) / elapsed.Seconds()
	sat.rowsPerSec = float64(rows) / elapsed.Seconds()
	return sat
}

// p99Windows is how many consecutive windows windowedP99 splits a
// phase into.
const p99Windows = 6

// windowedP99 is the median of the p99s of p99Windows consecutive
// windows of a phase (latencies in due order). One stall of a shared
// machine then moves one window's tail, not the figure.
func windowedP99(byDue []time.Duration) float64 {
	n := len(byDue)
	if n < p99Windows {
		return percentile(byDue, 0.99)
	}
	var p99s []float64
	for w := 0; w < p99Windows; w++ {
		p99s = append(p99s, percentile(byDue[w*n/p99Windows:(w+1)*n/p99Windows], 0.99))
	}
	return medianFloat(p99s)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
