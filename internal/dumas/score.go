package dumas

import (
	"context"

	"hummer/internal/parshard"
	"hummer/internal/strsim"
)

// Default-strategy scoring: whole-tuple TFIDF cosine accumulated
// through a weighted inverted index instead of a per-pair merge.
//
// The index maps every term of the right-hand term vectors to its
// posting list of (row, weight) entries in ascending row order. A left
// row walks its own terms in ascending order and adds wl·wr into a
// per-worker accumulator slot for every right row on the term's
// posting list. The rows it touches are exactly the right rows sharing
// at least one term with it — pairs sharing none have cosine 0 and can
// never reach MinTupleSim > 0 — and each touched pair receives the
// same float additions, in the same ascending-term order and starting
// from 0, that strsim.DotTermVecs performs. The similarities are
// therefore bit-identical to scoring every sharing pair with
// DotTermVecs, with no per-pair merge and no string comparison left.

// rowChunk is the number of left rows per scoring work unit of the
// default strategy; pairChunk is the number of candidate pairs per
// work unit of the key-based ones.
const (
	rowChunk  = 16
	pairChunk = parshard.DefaultChunk
)

// scoreShard is one chunk's (or the whole sequential run's) scoring
// output.
type scoreShard struct {
	stats Stats
	pairs []TuplePair
}

// posting is one right row's weight for an indexed term.
type posting struct {
	row int
	w   float64
}

// termIndex builds the weighted inverted index over vecs. Rows are
// visited in ascending order, so every posting list is row-sorted.
func termIndex(vecs []strsim.TermVec) map[string][]posting {
	index := map[string][]posting{}
	for ri, v := range vecs {
		for t, term := range v.Terms {
			index[term] = append(index[term], posting{row: ri, w: v.Ws[t]})
		}
	}
	return index
}

// scoreIndexed scores every cross pair sharing a term, one left row
// per work item, and keeps those reaching minSim. The pair order
// within a chunk is the accumulator's touch order; the caller ranks
// by a total order, so it never shows in the Result.
func scoreIndexed(ctx context.Context, workers int, leftVecs, rightVecs []strsim.TermVec, minSim float64) (scoreShard, error) {
	index := termIndex(rightVecs)
	nr := len(rightVecs)
	return parshard.RunContext(ctx, workers, rowChunk,
		parshard.Gen[int](func(yield func(int) bool) {
			for li := range leftVecs {
				if !yield(li) {
					return
				}
			}
		}),
		func() func(int, *scoreShard) {
			// The worker's running dot products against every right
			// row. stamp[r] == li+1 marks sum[r] as belonging to left
			// row li, so moving to the next row needs no reset pass;
			// touched lists the rows stamped for the current one.
			sum := make([]float64, nr)
			stamp := make([]int, nr)
			var touched []int
			return func(li int, out *scoreShard) {
				lv := leftVecs[li]
				mark := li + 1
				touched = touched[:0]
				for t, term := range lv.Terms {
					wl := lv.Ws[t]
					for _, p := range index[term] {
						if stamp[p.row] != mark {
							stamp[p.row] = mark
							sum[p.row] = 0
							touched = append(touched, p.row)
						}
						sum[p.row] += wl * p.w
					}
				}
				out.stats.CandidatePairs += len(touched)
				for _, ri := range touched {
					sim := sum[ri]
					if sim > 1 { // the clamp DotTermVecs applies
						sim = 1
					}
					if sim >= minSim {
						out.stats.Scored++
						out.pairs = append(out.pairs, TuplePair{LeftRow: li, RightRow: ri, Sim: sim})
					}
				}
			}
		},
		mergeScores)
}

// scorePairGen scores the pairs a key-based strategy proposes, each
// through DotTermVecs, and keeps those reaching minSim.
func scorePairGen(ctx context.Context, workers int, gen pairGen, leftVecs, rightVecs []strsim.TermVec, minSim float64) (scoreShard, error) {
	return parshard.RunContext(ctx, workers, pairChunk,
		parshard.Gen[[2]int](func(yield func([2]int) bool) {
			gen(func(li, ri int) bool { return yield([2]int{li, ri}) })
		}),
		func() func([2]int, *scoreShard) {
			return func(p [2]int, out *scoreShard) {
				out.stats.CandidatePairs++
				sim := strsim.DotTermVecs(leftVecs[p[0]], rightVecs[p[1]])
				if sim >= minSim {
					out.stats.Scored++
					out.pairs = append(out.pairs, TuplePair{LeftRow: p[0], RightRow: p[1], Sim: sim})
				}
			}
		},
		mergeScores)
}

// mergeScores folds one chunk's scoring output into the running total.
func mergeScores(into *scoreShard, chunk scoreShard) {
	into.stats.CandidatePairs += chunk.stats.CandidatePairs
	into.stats.Scored += chunk.stats.Scored
	into.pairs = append(into.pairs, chunk.pairs...)
}
