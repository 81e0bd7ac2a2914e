package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"hummer"
	"hummer/internal/core"
	"hummer/internal/dumas"
	"hummer/internal/dupdetect"
	"hummer/internal/engine"
	"hummer/internal/fusion"
	"hummer/internal/metadata"
	"hummer/internal/qcache"
	"hummer/internal/sql"
)

// perLayer lists the per-layer metrics every traced run prints, with
// their units.
var perLayer = []struct{ name, unit string }{
	{"server.self_ms", "ms"},
	{"server.allocs_per_req", "count"},
	{"server.resp_bytes", "bytes"},
	{"server.refused", "count"},
	{"plan.self_ms", "ms"},
	{"plan.warm_hit_us", "us"},
	{"plan.warm_hit_allocs", "count"},
	{"plan.ttfr_ms", "ms"},
	{"qcache.plan_hit_rate", "ratio"},
	{"qcache.match_hit_rate", "ratio"},
	{"qcache.detect_hit_rate", "ratio"},
	{"qcache.fused_hit_rate", "ratio"},
	{"qcache.cse_share_rate", "ratio"},
	{"qcache.shared", "count"},
	{"qcache.evictions", "count"},
	{"metadata.replace_ms", "ms"},
	{"metadata.fingerprint_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.merged_rows", "count"},
	{"dumas.match_ms", "ms"},
	{"dumas.candidate_pairs", "count"},
	{"dumas.scored", "count"},
	{"dumas.yield", "ratio"},
	{"dupdetect.detect_ms", "ms"},
	{"dupdetect.candidate_pairs", "count"},
	{"dupdetect.filtered_out", "count"},
	{"dupdetect.compared", "count"},
	{"dupdetect.prune_ratio", "ratio"},
	{"dupdetect.dup_yield", "ratio"},
	{"fusion.fuse_ms", "ms"},
	{"fusion.groups", "count"},
	{"engine.join_ms", "ms"},
	{"engine.join_rows", "count"},
	{"gen.lag_p99_ms", "ms"},
	{"calib.effective_cores", "cores"},
	{"trace.overhead_pct", "%"},
}

// traceInputs is what a traced run feeds through the layers: the
// workload's sources, three replays of its requests, and the fused and
// joined source pairs the lower layers are called on.
type traceInputs struct {
	srcs  []source
	prime []call
	// replays are the workload's request sequence, one per pass (four
	// through the server, one paired with DB-level twins). They differ
	// only in the versions churn writes: a pass that rewrote an earlier
	// pass's versions would find their artifacts cached.
	replays [5][]call
	// purge empties the cache before each request (cold_fuse).
	purge bool
	// next is a fresh version of the first fused source, for replace.
	next source
	// joinLeft/joinRight feed engine.NewHashJoin on Name = FullName.
	joinLeft, joinRight source
}

// replayLen is how many requests of the workload mix a traced replay
// sends (cold_fuse sends fewer: each request is a full fusion).
func replayLen(name string, opt options) int {
	switch {
	case opt.sc.fuseEntities < fullScale.fuseEntities:
		return 20
	case name == "cold_fuse":
		return 50
	default:
		return 600
	}
}

func tracedInputs(name string, opt options) (*traceInputs, error) {
	srcs, err := workloadSources(name, opt)
	if err != nil {
		return nil, err
	}
	in := &traceInputs{srcs: srcs}
	left, _ := fusedAliases(0)
	if name == "cold_fuse" {
		in.purge = true
		for p := range in.replays {
			for i := 0; i < replayLen(name, opt); i++ {
				in.replays[p] = append(in.replays[p], fuseCall(i%(len(srcs)/2), kindQuery, true))
			}
		}
		in.joinLeft, in.joinRight = srcs[0], srcs[1]
		in.next = genSource(opt.seed, left, opt.sc.fuseEntities, 1)
		return in, nil
	}
	mix, entities := warmMix(srcs), opt.sc.fuseEntities
	if name == "churn" {
		mix, entities = churnMix(srcs), opt.sc.churnEntities
	}
	for _, c := range mix {
		if c.call.kind != kindWrite {
			in.prime = append(in.prime, c.call)
		}
	}
	seq, err := closedSeq(opt.seed, mix, replayLen(name, opt))
	if err != nil {
		return nil, err
	}
	version := map[string]int{}
	for p := range in.replays {
		for _, r := range seq {
			c := mix[r.Class].call
			if c.kind == kindWrite {
				version[c.src.alias]++
				c.src = genSource(opt.seed, c.src.alias, entities, version[c.src.alias])
			}
			in.replays[p] = append(in.replays[p], c)
		}
	}
	in.joinLeft, in.joinRight = srcs[len(srcs)-2], srcs[len(srcs)-1]
	in.next = genSource(opt.seed, left, entities, version[left]+1)
	return in, nil
}

// traced is the per-layer run: it makes a short checked run of the
// workload, sets up like the end-to-end run, replays the workload's
// requests in process through Handler().ServeHTTP, bare and timed,
// makes each request's DB-level twin, and then times the lower layers'
// public entry points on the workload's own sources.
func traced(ctx context.Context, name string, opt options) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	m := rep.metrics
	in, err := tracedInputs(name, opt)
	if err != nil {
		return nil, err
	}

	// A short untraced run of the workload (nominal phase only) checks
	// its outputs against the references and measures how late the
	// open-loop generator ran. A closed loop sends each request when the
	// previous one ends, so cold_fuse's generator is never late.
	short := opt
	short.seconds = opt.seconds / 4
	short.nominalOnly = true
	short.sc.setups, short.sc.setupBudget = 1, 0
	checked, err := workloads[name](ctx, short)
	if err != nil {
		return nil, err
	}
	m["gen.lag_p99_ms"] = checked.metrics["gen.lag_p99_ms"]
	rep.problems = checked.problems
	rep.attempted, rep.failed = checked.attempted, checked.failed

	h, err := startHarness(connections())
	if err != nil {
		return nil, err
	}
	defer h.close()
	for _, s := range in.srcs {
		if _, err := h.mustDo(ctx, postSource(s), false); err != nil {
			return nil, err
		}
	}
	for _, c := range in.prime {
		if _, err := h.mustDo(ctx, c.request(), false); err != nil {
			return nil, err
		}
	}

	// twin is a second DB for the DB-level twins. reset brings both DBs
	// to the set-up state and the paired pass sends every request to
	// both, so a request and its twin start from the same cache state.
	twin := hummer.New()

	// reset restores the set-up state (version 0 of every source,
	// primed) of both DBs between passes.
	reset := func() error {
		for _, db := range []*hummer.DB{h.db, twin} {
			for _, s := range in.srcs {
				if err := db.ReplaceTable(s.alias, s.rel); err != nil {
					return err
				}
			}
			for _, c := range in.prime {
				if err := c.twin(ctx, db); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// pass replays one request sequence from the set-up state. A timed
	// pass also times each ServeHTTP call and counts its allocations. A
	// paired pass makes each request's twin on the twin DB right beside
	// it, in alternating order so neither always pays for the other's
	// garbage, and records the per-request difference.
	type passResult struct {
		wall, serve []time.Duration
		self        []float64
		allocs      uint64
		bytes       int
		refused     int
	}
	const (
		bare = iota
		timed
		paired
	)
	pass := func(replay []call, mode int) (passResult, error) {
		var pr passResult
		reqs := make([]request, len(replay))
		for i, c := range replay {
			reqs[i] = c.request()
		}
		if err := reset(); err != nil {
			return pr, err
		}
		for i, r := range reqs {
			if in.purge {
				h.db.PurgeCache()
				twin.PurgeCache()
			}
			if mode == paired {
				var serve, direct time.Duration
				for k := 0; k < 2; k++ {
					t := time.Now()
					if (i+k)%2 == 0 {
						record(h.handler, r)
						serve = time.Since(t)
					} else {
						if err := replay[i].twin(ctx, twin); err != nil {
							return pr, fmt.Errorf("twin call: %w", err)
						}
						direct = time.Since(t)
					}
				}
				pr.self = append(pr.self, ms(serve-direct))
				continue
			}
			start := time.Now()
			if mode == bare {
				record(h.handler, r)
				pr.wall = append(pr.wall, time.Since(start))
				continue
			}
			a0 := allocCount()
			t0 := time.Now()
			rec := record(h.handler, r)
			pr.serve = append(pr.serve, time.Since(t0))
			pr.allocs += allocCount() - a0
			pr.wall = append(pr.wall, time.Since(start))
			pr.bytes += rec.Body.Len()
			switch rec.Code {
			case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				pr.refused++
			}
			rep.attempted++
			if rec.Code/100 != 2 {
				rep.failed++
			}
		}
		return pr, nil
	}
	total := func(ds []time.Duration) time.Duration {
		var t time.Duration
		for _, d := range ds {
			t += d
		}
		return t
	}

	// Timed, bare, bare, timed: the ABBA order cancels drift between
	// passes in trace.overhead_pct. The cache counters are read around
	// the last timed pass. A fifth, paired pass gives server.self_ms.
	var bareWall, timedWall time.Duration
	var last passResult
	var before, after hummer.Stats
	for p, mode := range []int{timed, bare, bare, timed} {
		if p == 3 {
			before = h.db.Stats()
		}
		pr, err := pass(in.replays[p], mode)
		if err != nil {
			return nil, err
		}
		if mode == timed {
			timedWall += total(pr.wall)
			last = pr
		} else {
			bareWall += total(pr.wall)
		}
	}
	after = h.db.Stats()
	pairs, err := pass(in.replays[4], paired)
	if err != nil {
		return nil, err
	}

	n := float64(len(last.serve))
	m["server.self_ms"] = medianFloat(pairs.self)
	m["server.allocs_per_req"] = float64(last.allocs) / n
	m["server.resp_bytes"] = float64(last.bytes) / n
	m["server.refused"] = float64(last.refused)
	m["trace.overhead_pct"] = 100 * (timedWall.Seconds() - bareWall.Seconds()) / bareWall.Seconds()
	cacheRates(m, before.Cache, after.Cache)

	if err := sweepLayers(ctx, rep, h.db, in, opt.seconds/2); err != nil {
		return nil, err
	}
	rep.note("traced %s: 4 passes of %d requests through ServeHTTP (bare %.1f ms, timed %.1f ms), 1 paired with DB-level twins",
		name, len(last.serve), ms(bareWall), ms(timedWall))
	return rep, nil
}

// cacheRates fills the qcache metrics from two cache snapshots.
func cacheRates(m map[string]float64, before, after qcache.Stats) {
	var shared, evictions uint64
	rate := func(k qcache.Kind) float64 {
		a, b := after.Kinds[k], before.Kinds[k]
		hits := (a.Hits - b.Hits) + (a.Shared - b.Shared)
		total := hits + (a.Misses - b.Misses)
		if total == 0 {
			return 0
		}
		return float64(hits) / float64(total)
	}
	for k, a := range after.Kinds {
		b := before.Kinds[k]
		shared += a.Shared - b.Shared
		evictions += a.Evictions - b.Evictions
	}
	m["qcache.plan_hit_rate"] = rate(qcache.KindPlan)
	m["qcache.match_hit_rate"] = rate(qcache.KindMatch)
	m["qcache.detect_hit_rate"] = rate(qcache.KindDetect)
	m["qcache.fused_hit_rate"] = rate(qcache.KindFused)
	m["qcache.cse_share_rate"] = rate(qcache.KindCSE)
	m["qcache.shared"] = float64(shared)
	m["qcache.evictions"] = float64(evictions)
}

// fusionOptions translates the fused statement into pipeline options
// the way the planner does: FUSE BY attributes and one output item per
// SELECT item with its resolution.
func fusionOptions() (core.Options, []fusion.OutputItem, error) {
	stmt, err := sql.Parse(fuseSQL(0))
	if err != nil {
		return core.Options{}, nil, err
	}
	var items []fusion.OutputItem
	for _, it := range stmt.Items {
		item := fusion.OutputItem{Column: it.Col, As: it.Alias}
		if it.Resolve != nil {
			item.Spec = fusion.Spec{Name: it.Resolve.Func, Arg: it.Resolve.Arg}
		}
		items = append(items, item)
	}
	return core.Options{FuseBy: stmt.FuseBy, Items: items}, items, nil
}

// sweepLayers times the public entry points below the server on the
// workload's sources, repeating until budget is spent (at least three
// rounds), and reports medians.
func sweepLayers(ctx context.Context, rep *report, served *hummer.DB, in *traceInputs, budget time.Duration) error {
	opts, items, err := fusionOptions()
	if err != nil {
		return err
	}
	left, right := in.srcs[0], in.srcs[1]
	aliases := []string{left.alias, right.alias}
	repo := metadata.NewRepository()
	plain := hummer.New(hummer.WithoutCache())
	scratch := hummer.New()
	for _, s := range []source{left, right} {
		if err := repo.RegisterRelation(s.alias, s.rel); err != nil {
			return err
		}
		if err := plain.RegisterTable(s.alias, s.rel); err != nil {
			return err
		}
		if err := scratch.RegisterTable(s.alias, s.rel); err != nil {
			return err
		}
	}
	pipe := &core.Pipeline{Repo: repo, Registry: fusion.NewRegistry()}
	reg := fusion.NewRegistry()
	lineage := []hummer.QueryOption{hummer.WithoutTrace(), hummer.WithLineage(true)}

	var planSelf, coreSelf, match, detect, fuse, join, replace, fp, ttfr []float64
	var res *core.Result
	var mres *dumas.Result
	var det *dupdetect.Result
	var fused *fusion.Result
	var joinRows int
	deadline := time.Now().Add(budget)
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		// The plan and core calls alternate in order, so neither always
		// pays for the garbage the other left.
		var tPlan, tCore time.Duration
		for k := 0; k < 2; k++ {
			t := time.Now()
			if (round+k)%2 == 0 {
				if _, err := plain.QueryContext(ctx, fuseSQL(0), lineage...); err != nil {
					return err
				}
				tPlan = time.Since(t)
			} else {
				if res, err = pipe.RunContext(ctx, aliases, opts); err != nil {
					return err
				}
				tCore = time.Since(t)
			}
		}

		t := time.Now()
		if mres, err = dumas.MatchContext(ctx, res.Sources[0], res.Sources[1], dumas.Config{}); err != nil {
			return err
		}
		tMatch := time.Since(t)

		t = time.Now()
		if det, err = dupdetect.DetectContext(ctx, res.Merged, dupdetect.Config{Attributes: opts.FuseBy}); err != nil {
			return err
		}
		tDetect := time.Since(t)

		t = time.Now()
		if fused, err = fusion.Fuse(res.WithObjectID, reg, fusion.Options{
			GroupBy: []string{dupdetect.ObjectIDColumn}, Items: items}); err != nil {
			return err
		}
		tFuse := time.Since(t)

		hj, err := engine.NewHashJoin(engine.NewScan(in.joinLeft.rel), engine.NewScan(in.joinRight.rel),
			"Name", "FullName")
		if err != nil {
			return err
		}
		t = time.Now()
		joined, err := engine.MaterializeContext(ctx, "join", hj)
		if err != nil {
			return err
		}
		join = append(join, ms(time.Since(t)))
		joinRows = joined.Len()

		// Alternate between two versions so every replace changes data.
		src := in.next
		if round%2 == 1 {
			src = left
		}
		t = time.Now()
		if err := scratch.ReplaceTable(src.alias, src.rel); err != nil {
			return err
		}
		replace = append(replace, ms(time.Since(t)))
		t = time.Now()
		if _, err := scratch.SourceFingerprint(src.alias); err != nil {
			return err
		}
		fp = append(fp, ms(time.Since(t)))

		if in.purge {
			served.PurgeCache()
		}
		t = time.Now()
		rows, err := served.QueryRows(ctx, fuseSQL(0), hummer.WithoutTrace())
		if err != nil {
			return err
		}
		rows.Next()
		ttfr = append(ttfr, ms(time.Since(t)))
		if err := rows.Close(); err != nil {
			return err
		}

		planSelf = append(planSelf, ms(tPlan-tCore))
		coreSelf = append(coreSelf, ms(tCore-tMatch-tDetect-tFuse))
		match = append(match, ms(tMatch))
		detect = append(detect, ms(tDetect))
		fuse = append(fuse, ms(tFuse))
	}

	// Warm hits on the served DB: the fused statement with lineage.
	if _, err := served.QueryContext(ctx, fuseSQL(0), lineage...); err != nil {
		return err
	}
	const hits = 200
	var hitUs []float64
	a0 := allocCount()
	for i := 0; i < hits; i++ {
		t := time.Now()
		if _, err := served.QueryContext(ctx, fuseSQL(0), lineage...); err != nil {
			return err
		}
		hitUs = append(hitUs, float64(time.Since(t))/float64(time.Microsecond))
	}
	warmAllocs := float64(allocCount()-a0) / hits

	m := rep.metrics
	m["plan.self_ms"] = medianFloat(planSelf)
	m["plan.warm_hit_us"] = medianFloat(hitUs)
	m["plan.warm_hit_allocs"] = warmAllocs
	m["plan.ttfr_ms"] = medianFloat(ttfr)
	m["metadata.replace_ms"] = medianFloat(replace)
	m["metadata.fingerprint_ms"] = medianFloat(fp)
	m["core.self_ms"] = medianFloat(coreSelf)
	m["core.merged_rows"] = float64(res.Merged.Len())
	m["dumas.match_ms"] = medianFloat(match)
	m["dumas.candidate_pairs"] = float64(mres.Stats.CandidatePairs)
	m["dumas.scored"] = float64(mres.Stats.Scored)
	m["dumas.yield"] = ratio(mres.Stats.Scored, mres.Stats.CandidatePairs)
	m["dupdetect.detect_ms"] = medianFloat(detect)
	m["dupdetect.candidate_pairs"] = float64(det.Stats.CandidatePairs)
	m["dupdetect.filtered_out"] = float64(det.Stats.FilteredOut)
	m["dupdetect.compared"] = float64(det.Stats.Compared)
	m["dupdetect.prune_ratio"] = ratio(det.Stats.FilteredOut, det.Stats.CandidatePairs)
	m["dupdetect.dup_yield"] = ratio(len(det.Duplicates), det.Stats.Compared)
	m["fusion.fuse_ms"] = medianFloat(fuse)
	m["fusion.groups"] = float64(len(fused.Groups))
	m["engine.join_ms"] = medianFloat(join)
	m["engine.join_rows"] = float64(joinRows)
	rep.note("layer sweep: %d rounds over %d+%d fused rows and a %d+%d row join",
		len(match), left.rel.Len(), right.rel.Len(), in.joinLeft.rel.Len(), in.joinRight.rel.Len())
	return nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
