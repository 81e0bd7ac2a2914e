package dumas

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"hummer/internal/datagen"
	"hummer/internal/relation"
	"hummer/internal/strsim"
)

// oracleMatch is the reference for the default strategy's duplicate
// discovery: build the corpus and term vectors sequentially, score
// every cross pair through strsim.DotTermVecs, count as candidates the
// pairs sharing at least one term, rank by a total order and select
// 1:1. The field-wise half reuses correspond, so the two Results can
// be compared whole.
func oracleMatch(t *testing.T, left, right *relation.Relation, cfg Config) *Result {
	t.Helper()
	cfg = cfg.withDefaults()
	corpus := strsim.NewCorpus()
	tokensOf := func(rel *relation.Relation) [][]string {
		out := make([][]string, rel.Len())
		for i := range out {
			out[i] = strsim.Tokenize(tupleText(rel.Row(i)))
			corpus.AddDoc(out[i])
		}
		return out
	}
	lt, rt := tokensOf(left), tokensOf(right)
	vecsOf := func(tokens [][]string) []strsim.TermVec {
		out := make([]strsim.TermVec, len(tokens))
		for i, toks := range tokens {
			out[i] = corpus.TermVec(toks)
		}
		return out
	}
	lv, rv := vecsOf(lt), vecsOf(rt)

	var stats Stats
	var pairs []TuplePair
	for li := range lv {
		terms := map[string]bool{}
		for _, term := range lv[li].Terms {
			terms[term] = true
		}
		for ri := range rv {
			shares := false
			for _, term := range rv[ri].Terms {
				shares = shares || terms[term]
			}
			if !shares {
				continue
			}
			stats.CandidatePairs++
			if sim := strsim.DotTermVecs(lv[li], rv[ri]); sim >= cfg.MinTupleSim {
				stats.Scored++
				pairs = append(pairs, TuplePair{LeftRow: li, RightRow: ri, Sim: sim})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Sim != pairs[j].Sim {
			return pairs[i].Sim > pairs[j].Sim
		}
		if pairs[i].LeftRow != pairs[j].LeftRow {
			return pairs[i].LeftRow < pairs[j].LeftRow
		}
		return pairs[i].RightRow < pairs[j].RightRow
	})
	usedL, usedR := map[int]bool{}, map[int]bool{}
	var top []TuplePair
	for _, p := range pairs {
		if len(top) == cfg.MaxDuplicates {
			break
		}
		if !usedL[p.LeftRow] && !usedR[p.RightRow] {
			usedL[p.LeftRow], usedR[p.RightRow] = true, true
			top = append(top, p)
		}
	}
	res, err := correspond(context.Background(), left, right, top, stats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestIndexedScoringMatchesOracle: the weighted-inverted-index scoring
// must reproduce, bit for bit, the Result of scoring every pair with
// DotTermVecs — correspondences, duplicates, matrix and the candidate
// and scored counts — at every worker count, on datagen source pairs
// whose right side renames every column.
func TestIndexedScoringMatchesOracle(t *testing.T) {
	renames := map[string]string{
		"Name": "FullName", "Age": "Years", "City": "Town",
		"Email": "Mail", "Phone": "Telephone",
	}
	for _, seed := range []int64{1, 17, 2005} {
		ents := datagen.Persons.Generate(seed, 120)
		left := datagen.ObserveShuffled(datagen.Persons, ents, datagen.SourceSpec{
			Alias: "s1", Coverage: 0.9, TypoRate: 0.1, NullRate: 0.05, Seed: seed + 1,
		}).Rel
		right := datagen.ObserveShuffled(datagen.Persons, ents, datagen.SourceSpec{
			Alias: "s2", Renames: renames, Coverage: 0.9, TypoRate: 0.1, NullRate: 0.05, Seed: seed + 2,
		}).Rel
		for _, cfg := range []Config{{}, {MaxDuplicates: 40, MinTupleSim: 0.05}} {
			want := oracleMatch(t, left, right, cfg)
			if want.Stats.CandidatePairs <= pairChunk || len(want.Duplicates) == 0 {
				t.Fatalf("seed %d: workload too small: %+v", seed, want.Stats)
			}
			for _, p := range []int{1, 2, 3, 7} {
				cfg.Parallelism = p
				got, err := MatchContext(context.Background(), left, right, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("seed %d cfg %+v", seed, cfg), want, got)
			}
		}
	}
}
