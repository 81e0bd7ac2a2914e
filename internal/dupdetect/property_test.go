package dupdetect

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hummer/internal/datagen"
	"hummer/internal/relation"
	"hummer/internal/strsim"
	"hummer/internal/value"
)

// randomDirtyTable builds a random table whose rows are noisy copies
// of a random number of base entities, for property testing. The Tag
// column is sometimes copied as a near-anagram (shuffled, one rune
// replaced): its rune multiset stays close, so its filter bound clears
// matchCutoff, while its edit similarity falls far below it — the
// shape that separates an attribute's bound from its real score.
func randomDirtyTable(rng *rand.Rand) *relation.Relation {
	entities := 2 + rng.Intn(10)
	b := relation.NewBuilder("t", "Name", "Code", "Score", "Tag")
	letters := "abcdefghijklmnopqrstuvwxyz"
	word := func(n int) string {
		out := make([]byte, n)
		for i := range out {
			out[i] = letters[rng.Intn(len(letters))]
		}
		return string(out)
	}
	for e := 0; e < entities; e++ {
		name := word(4+rng.Intn(8)) + " " + word(4+rng.Intn(8))
		code := fmt.Sprintf("%s-%04d", word(2), rng.Intn(10000))
		score := rng.Float64() * 1000
		tag := word(6 + rng.Intn(5))
		copies := 1 + rng.Intn(3)
		for c := 0; c < copies; c++ {
			n, cd, sc, tg := name, code, score, tag
			if rng.Float64() < 0.3 {
				runes := []byte(n)
				runes[rng.Intn(len(runes))] = letters[rng.Intn(len(letters))]
				n = string(runes)
			}
			if rng.Float64() < 0.4 {
				runes := []byte(tg)
				rng.Shuffle(len(runes), func(i, j int) { runes[i], runes[j] = runes[j], runes[i] })
				runes[rng.Intn(len(runes))] = letters[rng.Intn(len(letters))]
				tg = string(runes)
			}
			row := relation.Row{value.NewString(n), value.NewString(cd), value.NewFloat(sc), value.NewString(tg)}
			if rng.Float64() < 0.2 {
				row[rng.Intn(len(row))] = value.Null
			}
			b.Add(row...)
		}
	}
	return b.Build()
}

// TestPropertyFilterSoundRandom: on random dirty tables, the filtered
// and unfiltered runs must produce identical clusterings and identical
// duplicate lists (pairs, order and similarities), with and without
// the contradiction penalty; the filtered borderline list is the
// unfiltered one minus the pairs the filter skipped. The bound is
// sound by construction; this guards regressions.
func TestPropertyFilterSoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		rel := randomDirtyTable(rng)
		for _, noPenalty := range []bool{false, true} {
			for _, th := range []float64{0.6, 0.8, 0.95} {
				cfg := Config{Threshold: th, NoContradictionPenalty: noPenalty}
				on, err1 := Detect(rel, cfg)
				cfg.DisableFilter = true
				off, err2 := Detect(rel, cfg)
				if err1 != nil || err2 != nil {
					t.Fatalf("trial %d: %v / %v", trial, err1, err2)
				}
				label := fmt.Sprintf("trial %d th=%.2f noPenalty=%v", trial, th, noPenalty)
				if !reflect.DeepEqual(on.ObjectIDs, off.ObjectIDs) {
					t.Fatalf("%s: filter changed clustering\n%v\n%v\n%s", label, on.ObjectIDs, off.ObjectIDs, rel)
				}
				if !reflect.DeepEqual(on.Duplicates, off.Duplicates) {
					t.Fatalf("%s: filter changed duplicates\n%v\n%v\n%s", label, on.Duplicates, off.Duplicates, rel)
				}
				if !isSubsequence(on.Borderline, off.Borderline) {
					t.Fatalf("%s: filtered borderline %v not within unfiltered %v", label, on.Borderline, off.Borderline)
				}
			}
		}
	}
}

// isSubsequence reports whether sub lists a subset of all's pairs, in
// all's order.
func isSubsequence(sub, all []ScoredPair) bool {
	j := 0
	for _, p := range sub {
		for j < len(all) && all[j] != p {
			j++
		}
		if j == len(all) {
			return false
		}
		j++
	}
	return true
}

// TestPropertyClusterInvariants: cluster ids are dense, first-
// appearance ordered, and partition the rows — for random inputs.
func TestPropertyClusterInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 25; trial++ {
		rel := randomDirtyTable(rng)
		res, err := Detect(rel, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ObjectIDs) != rel.Len() {
			t.Fatalf("trial %d: %d ids for %d rows", trial, len(res.ObjectIDs), rel.Len())
		}
		maxSeen := -1
		for _, id := range res.ObjectIDs {
			if id > maxSeen+1 {
				t.Fatalf("trial %d: ids not dense: %v", trial, res.ObjectIDs)
			}
			if id == maxSeen+1 {
				maxSeen = id
			}
		}
		total := 0
		for _, members := range res.Clusters {
			total += len(members)
		}
		if total != rel.Len() {
			t.Fatalf("trial %d: clusters cover %d of %d rows", trial, total, rel.Len())
		}
	}
}

// TestPropertyThresholdMonotone: raising the threshold can only break
// clusters apart (the duplicate pair set shrinks), never create new
// merges. Cluster count must be non-decreasing in the threshold.
func TestPropertyThresholdMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rel := randomDirtyTable(rng)
		prev := -1
		for _, th := range []float64{0.5, 0.7, 0.9, 0.99} {
			res, err := Detect(rel, Config{Threshold: th})
			if err != nil {
				t.Fatal(err)
			}
			n := len(res.Clusters)
			if prev >= 0 && n < prev {
				t.Fatalf("trial %d: clusters dropped from %d to %d as threshold rose to %.2f",
					trial, prev, n, th)
			}
			prev = n
		}
	}
}

// TestPropertySimilaritySymmetric: the pair scores must not depend on
// argument order (checked through the duplicate pair lists of a table
// and its row-reversed twin being consistent).
func TestPropertySimilaritySymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		rel := randomDirtyTable(rng)
		cols := make([]int, rel.Schema().Len())
		for i := range cols {
			cols[i] = i
		}
		m, err := newMeasure(context.Background(), rel, cols, Config{Threshold: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		var sc strsim.Scratch
		for a := 0; a < rel.Len(); a++ {
			for b := a + 1; b < rel.Len(); b++ {
				if s1, s2 := m.similarity(a, b, &sc), m.similarity(b, a, &sc); s1 != s2 {
					t.Fatalf("similarity asymmetric: (%d,%d)=%g vs %g", a, b, s1, s2)
				}
			}
		}
	}
}

// TestPropertyUpperBoundDominates: the filter bound must be ≥ the true
// similarity on every random pair, with and without the contradiction
// penalty — the soundness invariant itself.
func TestPropertyUpperBoundDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		rel := randomDirtyTable(rng)
		cols := make([]int, rel.Schema().Len())
		for i := range cols {
			cols[i] = i
		}
		for _, noPenalty := range []bool{false, true} {
			m, err := newMeasure(context.Background(), rel, cols, Config{Threshold: 0.8, NoContradictionPenalty: noPenalty})
			if err != nil {
				t.Fatal(err)
			}
			var sc strsim.Scratch
			for a := 0; a < rel.Len(); a++ {
				for b := a + 1; b < rel.Len(); b++ {
					ub := m.upperBound(a, b)
					sim := m.similarity(a, b, &sc)
					if ub < sim-1e-9 {
						t.Fatalf("noPenalty=%v: bound %g < similarity %g for rows %d,%d:\n%v\n%v",
							noPenalty, ub, sim, a, b, rel.Row(a), rel.Row(b))
					}
				}
			}
		}
	}
}

// TestPropertyRuneSketchSound: on random strings with multi-byte
// runes, repeated runes and empty strings, the presence-sketch count
// never undercounts the exact rune-multiset intersection, and
// editSimBound — sketch first, exact merge only when the sketch cannot
// rule the attribute out — agrees with the exact bound on every
// matchCutoff decision and returns it exactly whenever it clears the
// cutoff.
func TestPropertyRuneSketchSound(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	alphabet := []rune("aabbeeinorstuz09 -.éüßøçжфюλπ中文字😀🙂")
	randomText := func() string {
		if rng.Intn(8) == 0 {
			return ""
		}
		rs := make([]rune, 1+rng.Intn(14))
		for i := range rs {
			rs[i] = alphabet[rng.Intn(len(alphabet))]
		}
		if rng.Intn(3) == 0 { // a run of one repeated rune
			r := alphabet[rng.Intn(len(alphabet))]
			for i := rng.Intn(len(rs)); i < len(rs); i++ {
				rs[i] = r
			}
		}
		return string(rs)
	}
	var buf []rune
	for trial := 0; trial < 20000; trial++ {
		x := randomText()
		y := x
		if rng.Intn(3) > 0 {
			y = randomText()
		}
		if rng.Intn(2) == 0 && len(y) > 0 { // a near copy: one rune replaced
			rs := []rune(y)
			rs[rng.Intn(len(rs))] = alphabet[rng.Intn(len(alphabet))]
			y = string(rs)
		}
		rx, ry := []rune(x), []rune(y)
		var cx, cy runeCounts
		cx, buf = countRunes(rx, buf)
		cy, buf = countRunes(ry, buf)
		have := map[rune]int{}
		for _, r := range rx {
			have[r]++
		}
		exact := 0
		for _, r := range ry {
			if have[r] > 0 {
				have[r]--
				exact++
			}
		}
		if c := sketchCommon(len(rx), len(ry), cx.mask, cy.mask); c < exact {
			t.Fatalf("%q vs %q: sketch count %d < exact intersection %d", x, y, c, exact)
		}
		longest := max(len(rx), len(ry))
		want := 1.0
		if longest > 0 {
			want = float64(exact) / float64(longest)
		}
		got := editSimBound(len(rx), len(ry), cx, cy)
		if (got >= matchCutoff) != (want >= matchCutoff) || (want >= matchCutoff && got != want) {
			t.Fatalf("%q vs %q: editSimBound %g, exact bound %g", x, y, got, want)
		}
		if sim := strsim.LevenshteinSim(x, y); sim > want+1e-12 {
			t.Fatalf("%q vs %q: edit similarity %g above multiset bound %g", x, y, sim, want)
		}
	}
}

// TestBorderlineFilterSubset pins what Result.Borderline promises: the
// filter leaves Duplicates unchanged, but it never compares pairs
// whose bound is below the threshold, so the filtered borderline list
// is an ordered subset of the unfiltered one — not necessarily all
// pairs in [0.9·threshold, threshold).
func TestBorderlineFilterSubset(t *testing.T) {
	on, off := 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		ents := datagen.Persons.Generate(seed, 50)
		rel := datagen.DirtyTable(datagen.Persons, ents, 3, datagen.SourceSpec{
			Alias: "d", TypoRate: 0.15, NullRate: 0.1, Seed: seed + 100,
		}).Rel
		filtered, err1 := Detect(rel, Config{})
		full, err2 := Detect(rel, Config{DisableFilter: true})
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: %v / %v", seed, err1, err2)
		}
		if !reflect.DeepEqual(filtered.Duplicates, full.Duplicates) {
			t.Fatalf("seed %d: filter changed duplicates", seed)
		}
		if !isSubsequence(filtered.Borderline, full.Borderline) {
			t.Fatalf("seed %d: filtered borderline %v not within unfiltered %v",
				seed, filtered.Borderline, full.Borderline)
		}
		on += len(filtered.Borderline)
		off += len(full.Borderline)
	}
	t.Logf("borderline pairs over 10 seeds: %d filtered, %d unfiltered", on, off)
}
