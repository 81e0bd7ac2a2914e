package dumas

import (
	"context"
	"sort"
	"strings"

	"hummer/internal/parshard"
	"hummer/internal/strsim"
)

// Key-based cross-relation candidate-pair generation for the
// duplicate-discovery step. The default strategy needs no generator:
// it scores every pair sharing a term through the weighted inverted
// index (score.go). The two key-based strategies are pairGens: a
// deterministic stream of (leftRow, rightRow) pairs in the strategy's
// canonical order. The scorer consumes the stream either inline
// (sequential) or chunked across the parshard worker pool; the
// canonical order is what makes the two paths produce byte-identical
// results.
//
//   - sorted neighborhood (Config.Window): left and right tuples are
//     merged into one list ordered by their whole-tuple sort key
//     (lowercased tupleText); only cross-relation entries within the
//     window are paired — ~(n+m)·w candidates.
//   - q-gram prefix blocking (Config.QGrams): blocking keys are the
//     padded q-grams of the first qgramPrefixRunes runes of the sort
//     key. Tuples sharing any key are candidates, so a typo inside the
//     prefix still leaves the other grams agreeing — recall survives
//     dirty prefixes that defeat plain prefix blocking.

// pairGen enumerates candidate (left, right) pairs in canonical order.
// It stops early when yield returns false.
type pairGen func(yield func(li, ri int) bool)

// qgramPrefixRunes is how much of the sort key the q-gram blocking
// strategy derives its keys from: long enough to cover the leading
// attribute, short enough that blocks stay discriminating.
const qgramPrefixRunes = 10

// maxQGramBlock caps a posting list's size for the q-gram strategy: a
// gram shared by this many tuples does not discriminate entities, and
// pairing through it would reintroduce the quadratic blowup blocking
// exists to avoid.
const maxQGramBlock = 1000

// qgramPairs streams, for each left row in ascending order, the
// ascending right rows sharing at least one q-gram of the sort-key
// prefix. Oversized posting lists are skipped on both sides.
func qgramPairs(leftKeys, rightKeys []string, q int) pairGen {
	grams := func(key string) []string {
		return dedupSorted(strsim.QGrams(runePrefix(key, qgramPrefixRunes), q))
	}
	index := map[string][]int{}
	for ri, key := range rightKeys {
		for _, g := range grams(key) {
			index[g] = append(index[g], ri)
		}
	}
	keyed := make([][]string, len(leftKeys))
	for li, key := range leftKeys {
		keyed[li] = grams(key)
	}
	return probeIndexPairs(keyed, len(rightKeys), index)
}

// probeIndexPairs is the inverted-index probe: for each left row
// ascending, collect the distinct right rows from the posting lists of
// its keys (lists longer than maxQGramBlock are skipped), sort them
// ascending and yield. A stamp array makes the per-row dedup
// allocation-free.
func probeIndexPairs(leftKeyed [][]string, nRight int, index map[string][]int) pairGen {
	return func(yield func(li, ri int) bool) {
		stamp := make([]int, nRight)
		for i := range stamp {
			stamp[i] = -1
		}
		var cands []int
		for li, keys := range leftKeyed {
			cands = cands[:0]
			for _, k := range keys {
				list := index[k]
				if len(list) > maxQGramBlock {
					continue
				}
				for _, ri := range list {
					if stamp[ri] != li {
						stamp[ri] = li
						cands = append(cands, ri)
					}
				}
			}
			sort.Ints(cands)
			for _, ri := range cands {
				if !yield(li, ri) {
					return
				}
			}
		}
	}
}

// snEntry is one tuple in the combined sorted-neighborhood order.
type snEntry struct {
	key  string
	side uint8 // 0 = left, 1 = right
	row  int
}

// windowPairs streams the cross-relation sorted-neighborhood pairs:
// left and right tuples merged and ordered by sort key, every
// cross-side pair within `window` positions, in (position, distance)
// order.
func windowPairs(leftKeys, rightKeys []string, window int) pairGen {
	entries := make([]snEntry, 0, len(leftKeys)+len(rightKeys))
	for i, k := range leftKeys {
		entries = append(entries, snEntry{key: k, side: 0, row: i})
	}
	for i, k := range rightKeys {
		entries = append(entries, snEntry{key: k, side: 1, row: i})
	}
	sort.Slice(entries, func(x, y int) bool {
		if entries[x].key != entries[y].key {
			return entries[x].key < entries[y].key
		}
		if entries[x].side != entries[y].side {
			return entries[x].side < entries[y].side
		}
		return entries[x].row < entries[y].row
	})
	return func(yield func(li, ri int) bool) {
		for pos := range entries {
			for d := 1; d <= window && pos+d < len(entries); d++ {
				a, b := entries[pos], entries[pos+d]
				if a.side == b.side {
					continue
				}
				if a.side == 1 {
					a, b = b, a
				}
				if !yield(a.row, b.row) {
					return
				}
			}
		}
	}
}

// dedupSorted returns the sorted distinct strings of s (s is not
// modified).
func dedupSorted(s []string) []string {
	if len(s) <= 1 {
		return s
	}
	out := append([]string(nil), s...)
	sort.Strings(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// runePrefix returns the first p runes of s (the whole string when
// shorter).
func runePrefix(s string, p int) string {
	n := 0
	for i := range s {
		if n == p {
			return s[:i]
		}
		n++
	}
	return s
}

// sortKeys renders, row-sharded, each tuple's sorted-neighborhood /
// blocking key: the lowercased whole-tuple text. A cancelled ctx
// leaves later keys empty; the scoring run re-checks ctx on entry and
// discards everything, so the poll only keeps this pass from running
// to completion first.
func sortKeys(ctx context.Context, texts []string, workers int) []string {
	keys := make([]string, len(texts))
	_ = parshard.RangesContext(ctx, workers, len(texts), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i%parshard.CancelStride == 0 && parshard.Canceled(ctx) {
				return
			}
			keys[i] = strings.ToLower(texts[i])
		}
	})
	return keys
}

// keyedPairs selects the key-based strategy for cfg (Window or
// QGrams). Config validation has already rejected setting both.
func keyedPairs(cfg Config, leftKeys, rightKeys []string) pairGen {
	if cfg.Window > 0 {
		return windowPairs(leftKeys, rightKeys, cfg.Window)
	}
	return qgramPairs(leftKeys, rightKeys, cfg.QGrams)
}
