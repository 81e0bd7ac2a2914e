package main

import (
	"context"
	"fmt"
	"time"

	"hummer"
)

// callKind is the API a call goes through.
type callKind int

const (
	kindQuery  callKind = iota // POST /v1/query, DB.QueryContext
	kindStream                 // POST /v1/query/stream, DB.QueryRows
	kindBatch                  // POST /v1/batch, DB.QueryBatch
	kindWrite                  // POST /v1/sources, DB.ReplaceTable
)

// call is one request of a workload, in a form that can be sent over
// HTTP or made directly on the DB (its twin, for the traced run).
type call struct {
	kind    callKind
	sql     string
	lineage bool
	stmts   []string
	src     source // kindWrite
}

// request renders c as an HTTP request.
func (c call) request() request {
	switch c.kind {
	case kindStream:
		return postStream(c.sql, c.lineage)
	case kindBatch:
		return postBatch(c.stmts...)
	case kindWrite:
		return postSource(c.src)
	default:
		return postQuery(c.sql, c.lineage)
	}
}

// twin makes the DB-level call the server makes for c, with the same
// options, and drains its result.
func (c call) twin(ctx context.Context, db *hummer.DB) error {
	opts := []hummer.QueryOption{hummer.WithoutTrace(), hummer.WithLineage(c.lineage)}
	switch c.kind {
	case kindStream:
		rows, err := db.QueryRows(ctx, c.sql, opts...)
		if err != nil {
			return err
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			_ = rows.Close()
			return err
		}
		return rows.Close()
	case kindBatch:
		for _, r := range db.QueryBatch(ctx, c.stmts, opts...) {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	case kindWrite:
		return db.ReplaceTable(c.src.alias, c.src.rel)
	default:
		_, err := db.QueryContext(ctx, c.sql, opts...)
		return err
	}
}

// class is one kind of request in a workload's mix.
type class struct {
	name   string
	weight int
	// rows is how many source rows the request reads, for
	// input_rows_per_s.
	rows int
	call call
	// pair indexes the two sources a fused or churn read depends on.
	pair [2]int
	// issue sends one request of this class, due at due, and returns
	// its outcome. The workload sets it; check state lives in the
	// closure.
	issue func(ctx context.Context, due time.Time) outcome
}

// fuseCall and joinCall are the workloads' statements: the fused
// query over pair k and the join.
func fuseCall(k int, kind callKind, lineage bool) call {
	return call{kind: kind, sql: fuseSQL(k), lineage: lineage}
}

func joinCall(kind callKind) call { return call{kind: kind, sql: joinSQL} }

// warmMix is warm_serve's read mix: for each fused pair, the fused
// query materialized with and without lineage and streamed, and a batch
// of overlapping statements; and the join the CSE tier serves. srcs
// holds the fused pairs in order, then j1 and j2.
//
// The shares follow loadgen.DefaultClasses, the repo's standard mix,
// restricted to its warm read classes: warm_fuse (4) split evenly
// between with and without lineage, fuse_stream (2), select_mat (2) for
// the join and batch (1). Overall that is 2:2:2:2:1, i.e. 22% each for
// the fused query without lineage, with lineage, streamed and the join,
// and 11% for the batch, spread evenly over the pairs.
func warmMix(srcs []source) []class {
	pairs := len(srcs)/2 - 1
	joinRows := totalRows(srcs[2*pairs], srcs[2*pairs+1])
	mix := []class{{name: "join_cse", weight: 2 * pairs, rows: joinRows, call: joinCall(kindQuery)}}
	for k := 0; k < pairs; k++ {
		fuseRows := totalRows(srcs[2*k], srcs[2*k+1])
		pair := [2]int{2 * k, 2*k + 1}
		mix = append(mix,
			class{name: fmt.Sprintf("fuse/%d", k), weight: 2, rows: fuseRows, call: fuseCall(k, kindQuery, false), pair: pair},
			class{name: fmt.Sprintf("fuse_lineage/%d", k), weight: 2, rows: fuseRows, call: fuseCall(k, kindQuery, true), pair: pair},
			class{name: fmt.Sprintf("fuse_stream/%d", k), weight: 2, rows: fuseRows, call: fuseCall(k, kindStream, false), pair: pair},
			class{name: fmt.Sprintf("batch/%d", k), weight: 1, rows: fuseRows + 2*joinRows,
				call: call{kind: kindBatch, stmts: []string{fuseSQL(k), joinSQL, countSQL}}},
		)
	}
	return mix
}

// churnMix is churn's mix over srcs = s1_0, s2_0, j1, j2: four read
// classes (the small fused query and the join, each materialized and
// streamed), then one write class per source. Only the 90/10
// read/write ratio is part of the workload's design, so the shares are
// equal within each side: 22.5% per read class, 2.5% per source write.
func churnMix(srcs []source) []class {
	fuseRows, joinRows := totalRows(srcs[0], srcs[1]), totalRows(srcs[2], srcs[3])
	mix := []class{
		{name: "fuse_lineage", weight: 9, rows: fuseRows, call: fuseCall(0, kindQuery, true), pair: [2]int{0, 1}},
		{name: "fuse_stream", weight: 9, rows: fuseRows, call: fuseCall(0, kindStream, false), pair: [2]int{0, 1}},
		{name: "join", weight: 9, rows: joinRows, call: joinCall(kindQuery), pair: [2]int{2, 3}},
		{name: "join_stream", weight: 9, rows: joinRows, call: joinCall(kindStream), pair: [2]int{2, 3}},
	}
	for _, src := range srcs {
		mix = append(mix, class{name: "write_" + src.alias, weight: 1, rows: src.rel.Len(),
			call: call{kind: kindWrite, src: src}})
	}
	return mix
}

// workloadSources generates the sources a workload registers at set-up:
// cold_fuse the fused pairs, warm_serve the fused pairs and the join
// tables, churn one small fused pair and small join tables.
func workloadSources(name string, opt options) ([]source, error) {
	var aliases []string
	n := opt.sc.fuseEntities
	var pairs int
	switch name {
	case "cold_fuse":
		pairs = opt.sc.coldPairs
	case "warm_serve":
		pairs = opt.sc.warmPairs
	case "churn":
		n, pairs = opt.sc.churnEntities, 1
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	for k := 0; k < pairs; k++ {
		l, r := fusedAliases(k)
		aliases = append(aliases, l, r)
	}
	if name != "cold_fuse" {
		aliases = append(aliases, aliasJoinLeft, aliasJoinRight)
	}
	srcs := make([]source, len(aliases))
	for i, a := range aliases {
		srcs[i] = genSource(opt.seed, a, n, 0)
	}
	return srcs, nil
}
