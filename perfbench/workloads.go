package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hummer/internal/loadgen"
)

// scale fixes the input sizes and offered rates of the workloads.
type scale struct {
	// fuseEntities is the population behind each fused source of
	// cold_fuse and warm_serve (and warm_serve's join tables).
	fuseEntities int
	// churnEntities is the population behind every churn source.
	churnEntities int
	// coldPairs and warmPairs are how many seeded fused pairs cold_fuse
	// and warm_serve spread their requests over, so one run's figures
	// do not hang on the quirks of one draw of data. cold_fuse uses
	// many, so that its latency distribution is not a few separate
	// peaks with the median flipping between them.
	coldPairs, warmPairs int
	// setups is how many times set-up is repeated at least for
	// setup_s; it is repeated further, up to maxSetups times, until
	// setupBudget is spent, so that a fast set-up gets a steady median.
	setups      int
	setupBudget time.Duration
	// warmRate and churnRate are the nominal open-loop rates (req/s),
	// well below each mix's saturation rate: closer to it, queueing
	// amplifies the machine's drift into the latencies.
	warmRate, churnRate float64
}

// fullScale is the benchmark as recorded in BENCHMARK.json.
var fullScale = scale{
	fuseEntities:  400,
	churnEntities: 60,
	coldPairs:     16,
	warmPairs:     4,
	setups:        5,
	setupBudget:   3 * time.Second,
	warmRate:      300,
	churnRate:     200,
}

// tinyScale runs every code path in about a second, for the smoke test.
var tinyScale = scale{
	fuseEntities:  30,
	churnEntities: 20,
	coldPairs:     2,
	warmPairs:     2,
	setups:        2,
	warmRate:      40,
	churnRate:     40,
}

// report is one workload run's result.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	// problems lists failed output checks; any entry fails the run.
	problems []string
	// notes are extra human-readable lines (sample counts).
	notes []string
}

func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// options are the run-wide settings.
type options struct {
	seed    int64
	seconds time.Duration
	sc      scale
	// corrupt flips a bit of every reference digest: a run must then
	// fail its output checks.
	corrupt bool
	// nominalOnly skips the saturation phase (the traced run uses it
	// to measure the generator on the nominal phase alone).
	nominalOnly bool
}

func (o options) refDigest(d digest) digest {
	if o.corrupt {
		d ^= 1 << 63
	}
	return d
}

// maxSetups bounds how often setup repeats within its budget.
const maxSetups = 100

// setup starts hummerd and registers srcs through POST /v1/sources,
// then runs prime; it does this at least opt.sc.setups times on fresh
// servers, and until opt.sc.setupBudget is spent, and keeps the last.
// It returns the set-up times.
func setup(ctx context.Context, opt options, srcs []source, prime func(*harness) error) (*harness, []float64, error) {
	var h *harness
	var times []float64
	began := time.Now()
	for i := 0; i < opt.sc.setups || (i < maxSetups && time.Since(began) < opt.sc.setupBudget); i++ {
		if h != nil {
			h.close()
		}
		start := time.Now()
		var err error
		if h, err = startHarness(connections()); err != nil {
			return nil, nil, err
		}
		err = func() error {
			for _, s := range srcs {
				if _, err := h.mustDo(ctx, postSource(s), false); err != nil {
					return err
				}
			}
			return prime(h)
		}()
		if err != nil {
			h.close()
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return h, times, nil
}

func totalRows(srcs ...source) int {
	n := 0
	for _, s := range srcs {
		n += s.rel.Len()
	}
	return n
}

// closedLoopQuantile is the quantile of cold_fuse's latencies that its
// gated latency_ms and ttfr_ms report. Each request of the closed loop
// runs alone, and the neighbours of a shared machine only add to its
// time; they slow a varying share of a run's requests, which moves the
// median with it. The fastest tenth is the program's cost with the
// least of that. On an open loop, timed from due, the fastest tenth is
// the generator's dispatch jitter on the cheapest class instead, and
// the median is the steadier figure there.
const closedLoopQuantile = 0.1

// coldFuse is the closed-loop cold fusion workload: one client sends
// the fused query over each pair in turn, each request preceded by an
// untimed cache purge.
func coldFuse(ctx context.Context, opt options) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	srcs, err := workloadSources("cold_fuse", opt)
	if err != nil {
		return nil, err
	}
	pairs := len(srcs) / 2
	reqs := make([]request, pairs)
	pairRows := make([]int, pairs)
	for k := range reqs {
		reqs[k] = fuseCall(k, kindQuery, true).request()
		pairRows[k] = totalRows(srcs[2*k], srcs[2*k+1])
	}
	want, bodies, err := referenceAnswers(opt, srcs, reqs)
	if err != nil {
		return nil, err
	}
	var counts pairCounts
	for k, body := range bodies {
		c, err := dupPairs(body, srcs[2*k], srcs[2*k+1])
		if err != nil {
			return nil, err
		}
		counts.add(c)
	}

	cold := func(h *harness, k int) (outcome, error) {
		if _, err := h.mustDo(ctx, purgeCache, false); err != nil {
			return outcome{}, err
		}
		return h.do(ctx, reqs[k], time.Now(), false), nil
	}
	h, setups, err := setup(ctx, opt, srcs, func(h *harness) error {
		o, err := cold(h, 0)
		if err == nil && !o.ok() {
			err = fmt.Errorf("priming query: status %d: %v", o.status, o.err)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	defer h.close()

	// From here on the generator holds only the rendered requests and
	// the latencies, so the heap it samples is the server's.
	var lat, ttfr []time.Duration
	rows := 0
	heap := startHeapSampler(opt.seconds)
	end := time.Now().Add(opt.seconds)
	for i := 0; time.Now().Before(end); i++ {
		k := i % pairs
		o, err := cold(h, k)
		if err != nil {
			heap.finish()
			return nil, err
		}
		rep.attempted++
		if !o.ok() {
			rep.failed++
			continue
		}
		if o.digest != want[k] {
			rep.problem("cold_fuse: response %d differs from the cache-free reference", rep.attempted)
		}
		lat = append(lat, o.latency)
		ttfr = append(ttfr, o.ttfr)
		rows += pairRows[k]
	}
	peak := heap.finish()

	var busy time.Duration
	for _, d := range lat {
		busy += d
	}
	m := rep.metrics
	m["setup_s"] = medianFloat(setups)
	m["latency_ms"] = percentile(lat, closedLoopQuantile)
	m["latency_p50_ms"] = percentile(lat, 0.5)
	m["latency_p90_ms"] = percentile(lat, 0.9)
	m["latency_p99_ms"] = percentile(lat, 0.99)
	m["input_rows_per_s"] = float64(rows) / busy.Seconds()
	m["sustained_qps"] = float64(len(lat)) / busy.Seconds()
	m["ttfr_ms"] = percentile(ttfr, closedLoopQuantile)
	m["ttfr_p50_ms"] = percentile(ttfr, 0.5)
	m["dup_f1"] = counts.f1()
	m["heap_peak_mb"] = peak
	rep.note("cold_fuse: %d requests over %d fused pairs of about %d input rows", len(lat), pairs, pairRows[0])
	return rep, nil
}

// referenceAnswers installs srcs in a fresh reference and returns the
// expected digest and the body of each of reqs. The reference DB is
// garbage once it returns, so it is not in the measured heap.
func referenceAnswers(opt options, srcs []source, reqs []request) ([]digest, [][]byte, error) {
	ref := newReference()
	for _, s := range srcs {
		if err := ref.set(s, 0); err != nil {
			return nil, nil, err
		}
	}
	want := make([]digest, len(reqs))
	bodies := make([][]byte, len(reqs))
	for k, r := range reqs {
		d, body, err := ref.expect(r)
		if err != nil {
			return nil, nil, err
		}
		want[k], bodies[k] = opt.refDigest(d), body
	}
	return want, bodies, nil
}

// warmServe is the read-only open-loop workload over primed caches.
func warmServe(ctx context.Context, opt options) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	srcs, err := workloadSources("warm_serve", opt)
	if err != nil {
		return nil, err
	}
	mix := warmMix(srcs)
	reqs := make([]request, len(mix))
	for i, c := range mix {
		reqs[i] = c.call.request()
	}
	want, _, err := referenceAnswers(opt, srcs, reqs)
	if err != nil {
		return nil, err
	}

	// Priming runs every statement once; the lineage answers are scored
	// for dup_f1, and every later response must equal its primed one.
	primed := make([]digest, len(mix))
	var counts pairCounts
	h, setups, err := setup(ctx, opt, srcs, func(h *harness) error {
		counts = pairCounts{}
		for i, c := range mix {
			o, err := h.mustDo(ctx, reqs[i], c.call.lineage)
			if err != nil {
				return err
			}
			if o.digest != want[i] {
				rep.problem("warm_serve: primed %s response differs from the cache-free reference", c.name)
			}
			primed[i] = o.digest
			if c.call.lineage {
				pc, err := dupPairs(o.kept, srcs[c.pair[0]], srcs[c.pair[1]])
				if err != nil {
					return err
				}
				counts.add(pc)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer h.close()

	for i := range mix {
		r := reqs[i]
		mix[i].issue = func(ctx context.Context, due time.Time) outcome { return h.do(ctx, r, due, false) }
	}
	check := func(samples []sample) {
		for _, s := range samples {
			if s.out.ok() && s.out.digest != primed[s.class] {
				rep.problem("warm_serve: %s response differs from its primed response", mix[s.class].name)
			}
		}
	}
	ps, sat, err := openLoop(ctx, opt, mix, opt.sc.warmRate, check, nil)
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = ps.attempted, ps.failed
	m := rep.metrics
	m["setup_s"] = medianFloat(setups)
	m["dup_f1"] = counts.f1()
	openLoopMetrics(m, ps, sat)
	rep.note("warm_serve: %d requests at %.0f req/s nominal (%d streamed), %d at saturation",
		ps.attempted-len(sat.samples), opt.sc.warmRate, len(ps.ttfr), len(sat.samples))
	rep.note("warm_serve: %.3f MB of the generator's own data left out of heap_peak_mb", ps.genHeapMB)
	return rep, nil
}

// openLoop runs the nominal-rate phase, with the heap sampled, and then
// (unless opt.nominalOnly) the saturation phase, handing each phase's
// request sequence to prepare first. check sees every sample of both
// phases; the saturation phase's failures count as failed requests too.
//
// The generator's own data for the nominal phase (the schedule, what
// prepare renders, the per-request samples) is allocated before the
// heap sampler starts. Its live size, measured between two collections,
// is subtracted from the peak, so heap_peak_mb is the server's heap.
func openLoop(ctx context.Context, opt options, mix []class, rate float64,
	check func([]sample), prepare func([]loadgen.Request)) (phaseStats, saturation, error) {
	nominal, satBudget := openLoopBudget(opt)
	base := liveHeap()
	sched, err := schedule(opt.seed, mix, rate, nominal)
	if err != nil {
		return phaseStats{}, saturation{}, err
	}
	if prepare != nil {
		prepare(sched)
	}
	samples := make([]sample, len(sched))
	gen := max(liveHeap()-base, 0)
	heap := startHeapSampler(nominal)
	runOpen(ctx, mix, sched, samples)
	peak := heap.finish()
	check(samples)
	ps := summarize(samples)
	ps.genHeapMB = float64(gen) / (1 << 20)
	ps.heapPeakMB = peak - ps.genHeapMB
	if opt.nominalOnly {
		return ps, saturation{}, nil
	}
	seq, err := closedSeq(opt.seed+1, mix, int(satBudget.Seconds()*maxRate)+1)
	if err != nil {
		return ps, saturation{}, err
	}
	if prepare != nil {
		prepare(seq)
	}
	sat := runSaturation(ctx, mix, seq, connections(), satBudget)
	check(sat.samples)
	for _, s := range sat.samples {
		ps.attempted++
		if !s.out.ok() {
			ps.failed++
		}
	}
	return ps, sat, nil
}

// openLoopMetrics fills the metrics an open-loop run measures.
func openLoopMetrics(m map[string]float64, ps phaseStats, sat saturation) {
	m["latency_p50_ms"] = percentile(ps.lat, 0.5)
	m["latency_ms"] = m["latency_p50_ms"]
	m["latency_p90_ms"] = percentile(ps.lat, 0.9)
	m["latency_p99_ms"] = windowedP99(ps.lat)
	m["input_rows_per_s"] = sat.rowsPerSec
	m["sustained_qps"] = sat.qps
	m["ttfr_p50_ms"] = percentile(ps.ttfr, 0.5)
	m["ttfr_ms"] = m["ttfr_p50_ms"]
	m["heap_peak_mb"] = ps.heapPeakMB
	m["gen.lag_p99_ms"] = percentile(ps.lag, 0.99)
}

// openLoopBudget splits the measured time of an open-loop workload
// between the nominal-rate phase and the saturation phase.
func openLoopBudget(opt options) (nominal, saturation time.Duration) {
	if opt.nominalOnly {
		return opt.seconds, 0
	}
	nominal = opt.seconds * 6 / 10
	return nominal, opt.seconds - nominal
}

// churnRead records one churn read for the post-run check: the
// versions of its two sources that were acknowledged when it was sent
// and the versions whose writes had started when it completed.
type churnRead struct {
	class  int
	lo, hi [2]int
	digest digest
}

// churn is the open-loop read/write workload: reads of a small fused
// query and a join, materialized and streamed, beside replaces of
// their sources.
func churn(ctx context.Context, opt options) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	srcs, err := workloadSources("churn", opt)
	if err != nil {
		return nil, err
	}
	mix := churnMix(srcs)
	nReads := len(mix) - len(srcs)
	aliases := make([]string, len(srcs))
	for t, src := range srcs {
		aliases[t] = src.alias
	}

	// Every write installs a fresh seeded version; version 0 is the one
	// set-up registers. Before each phase, prepare renders one body per
	// write the phase's sequence holds (bodies[t][v-1] is version v) and
	// makes room for the phase's read records.
	var (
		bodies  = make([][]request, len(srcs))
		recMu   sync.Mutex
		records []churnRead
	)
	prepare := func(seq []loadgen.Request) {
		for _, r := range seq {
			if t := r.Class - nReads; t >= 0 {
				v := len(bodies[t]) + 1
				bodies[t] = append(bodies[t], postSource(genSource(opt.seed, aliases[t], opt.sc.churnEntities, v)))
			}
		}
		records = slices.Grow(records, len(seq))
	}

	reads := make([]request, nReads)
	for i, c := range mix[:nReads] {
		reads[i] = c.call.request()
	}
	want, _, err := referenceAnswers(opt, srcs, reads)
	if err != nil {
		return nil, err
	}
	h, setups, err := setup(ctx, opt, srcs, func(h *harness) error {
		for i, r := range reads {
			o, err := h.mustDo(ctx, r, false)
			if err != nil {
				return err
			}
			if o.digest != want[i] {
				rep.problem("churn: primed %s response differs from the cache-free reference", mix[i].name)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer h.close()

	var (
		locks  = make([]sync.Mutex, len(srcs))
		next   = make([]int, len(srcs))
		issued = make([]atomic.Int64, len(srcs))
		acked  = make([]atomic.Int64, len(srcs))
	)
	for i, r := range reads {
		pair := mix[i].pair
		mix[i].issue = func(ctx context.Context, due time.Time) outcome {
			lo := [2]int{int(acked[pair[0]].Load()), int(acked[pair[1]].Load())}
			o := h.do(ctx, r, due, false)
			hi := [2]int{int(issued[pair[0]].Load()), int(issued[pair[1]].Load())}
			if o.ok() {
				recMu.Lock()
				records = append(records, churnRead{class: i, lo: lo, hi: hi, digest: o.digest})
				recMu.Unlock()
			}
			return o
		}
	}
	for t := range srcs {
		mix[nReads+t].issue = func(ctx context.Context, due time.Time) outcome {
			// Writes to one source are serialized, so versions land in
			// order and a read can be checked against a version range.
			locks[t].Lock()
			defer locks[t].Unlock()
			next[t]++
			v := next[t]
			issued[t].Store(int64(v))
			o := h.do(ctx, bodies[t][v-1], due, false)
			if o.ok() {
				acked[t].Store(int64(v))
			}
			return o
		}
	}

	ps, sat, err := openLoop(ctx, opt, mix, opt.sc.churnRate, func([]sample) {}, prepare)
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = ps.attempted, ps.failed

	// Check every read against the cache-free reference of a state it
	// may legitimately have seen. The versions are generated again here:
	// keeping them, or the reference, through the run would swell the
	// heap the run measures.
	ref := newReference()
	versions := map[[2]int]source{}
	version := func(t, v int) source {
		src, ok := versions[[2]int{t, v}]
		if !ok {
			src = genSource(opt.seed, aliases[t], opt.sc.churnEntities, v)
			versions[[2]int{t, v}] = src
		}
		return src
	}
	type stateKey struct{ class, a, b int }
	type state struct {
		digest digest
		pairs  pairCounts
	}
	states := map[stateKey]state{}
	var counts pairCounts
	for _, rec := range records {
		c := mix[rec.class]
		matched := false
		for a := rec.lo[0]; a <= rec.hi[0] && !matched; a++ {
			for b := rec.lo[1]; b <= rec.hi[1] && !matched; b++ {
				k := stateKey{rec.class, a, b}
				st, ok := states[k]
				if !ok {
					left, right := version(c.pair[0], a), version(c.pair[1], b)
					if err := ref.set(left, a); err != nil {
						return nil, err
					}
					if err := ref.set(right, b); err != nil {
						return nil, err
					}
					d, body, err := ref.expect(c.call.request())
					if err != nil {
						return nil, err
					}
					st.digest = opt.refDigest(d)
					if c.call.lineage {
						if st.pairs, err = dupPairs(body, left, right); err != nil {
							return nil, err
						}
					}
					states[k] = st
				}
				if st.digest == rec.digest {
					matched = true
					counts.add(st.pairs)
				}
			}
		}
		if !matched {
			rep.problem("churn: %s read reflects none of versions %v..%v of %s/%s", c.name, rec.lo, rec.hi,
				aliases[c.pair[0]], aliases[c.pair[1]])
		}
	}

	m := rep.metrics
	m["setup_s"] = medianFloat(setups)
	m["write_p50_ms"] = percentile(ps.writes, 0.5)
	m["dup_f1"] = counts.f1()
	openLoopMetrics(m, ps, sat)
	rep.note("churn: %d requests at %.0f req/s nominal (%d writes, %d streamed), %d at saturation, %d reads checked against %d reference states",
		ps.attempted-len(sat.samples), opt.sc.churnRate, len(ps.writes), len(ps.ttfr), len(sat.samples), len(records), len(states))
	rep.note("churn: %.3f MB of the generator's own data left out of heap_peak_mb", ps.genHeapMB)
	return rep, nil
}
