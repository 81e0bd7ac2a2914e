package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"hummer/internal/datagen"
	"hummer/internal/relation"
)

// Sources. Fused pair k is s1_k and s2_k: two dirty observations of one
// seeded population, the second with every column renamed, so DUMAS
// has to find the correspondences. j1 and j2 are the join tables of the
// plain SELECT … JOIN the CSE tier serves. Each run derives all of them
// from its seed.
const (
	aliasJoinLeft  = "j1"
	aliasJoinRight = "j2"
)

// fusedAliases returns the aliases of fused pair k.
func fusedAliases(k int) (string, string) {
	return fmt.Sprintf("s1_%d", k), fmt.Sprintf("s2_%d", k)
}

// fuseSQL is the fused statement over pair k: a two-source FUSE BY that
// resolves three columns and orders its output. Concatenating Email
// makes every fused row's lineage name all its source rows.
func fuseSQL(k int) string {
	l, r := fusedAliases(k)
	return fmt.Sprintf("SELECT Name, RESOLVE(Age, max), RESOLVE(City, vote), RESOLVE(Email, concat) "+
		"FUSE FROM %s, %s FUSE BY (Name) ORDER BY Name", l, r)
}

const (
	joinSQL  = "SELECT Name, Age, Town FROM j1 JOIN j2 ON Name = FullName ORDER BY Name, Age, Town"
	countSQL = "SELECT count(*) AS n FROM j1 JOIN j2 ON Name = FullName"
)

// rightRenames gives the right-hand sources their own schema labels.
var rightRenames = map[string]string{
	"Name": "FullName", "Age": "Years", "City": "Town", "Email": "Mail", "Phone": "Tel",
}

// source is one generated relation plus the ground-truth entity of
// each of its rows.
type source struct {
	alias    string
	rel      *relation.Relation
	entities []int
}

// mix derives an independent sub-seed from the workload seed and a
// label, so every generated artifact has its own reproducible stream.
func mix(seed int64, label string, n int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, n)
	return int64(h.Sum64() >> 1)
}

// genSource observes the population behind alias: both sides of a pair
// (s1_k and s2_k, j1 and j2) see the same people. version > 0 draws a
// fresh dirty observation of them, as a replaced source.
func genSource(seed int64, alias string, entities, version int) source {
	right := alias[1] == '2'
	population := alias[:1] + alias[2:]
	people := datagen.Persons.Generate(mix(seed, "people/"+population, 0), entities)
	spec := datagen.SourceSpec{
		Alias:    alias,
		Coverage: 0.9,
		TypoRate: 0.08,
		NullRate: 0.04,
		Seed:     mix(seed, alias, version),
	}
	if right {
		spec.Renames = rightRenames
		spec.NumericNoise = 0.2
	}
	if strings.HasPrefix(alias, "j") {
		spec.DropAttrs = []string{"Email", "Phone"}
	}
	obs := datagen.ObserveShuffled(datagen.Persons, people, spec)
	return source{alias: alias, rel: obs.Rel, entities: obs.EntityIDs}
}

// registerBody renders the POST /v1/sources payload that registers (or
// replaces) src inline.
func registerBody(src source) []byte {
	rel := src.rel
	cols := rel.Schema().Names()
	rows := make([][]string, rel.Len())
	for i := range rows {
		row := rel.Row(i)
		cells := make([]string, len(cols))
		for j := range cols {
			cells[j] = row[j].Text()
		}
		rows[i] = cells
	}
	body, err := json.Marshal(map[string]any{
		"alias": src.alias, "kind": "inline", "columns": cols, "rows": rows, "replace": true,
	})
	if err != nil {
		panic(err) // strings only: cannot fail
	}
	return body
}

// queryBody renders a /v1/query or /v1/query/stream payload.
func queryBody(sql string, lineage bool) []byte {
	body, _ := json.Marshal(map[string]any{"sql": sql, "lineage": lineage})
	return body
}

// batchBody renders a /v1/batch payload.
func batchBody(stmts []string) []byte {
	body, _ := json.Marshal(map[string]any{"statements": stmts})
	return body
}
