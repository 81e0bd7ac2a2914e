package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"

	"hummer"
	"hummer/internal/server"
)

// reference answers requests from a cache-free, sequential in-process
// HumMer (hummer.New(hummer.WithoutCache()) at parallelism 1),
// rendered through the same server handler without a network. Its
// bodies are what the served responses must equal byte for byte.
type reference struct {
	db      *hummer.DB
	handler http.Handler
	// versions records which version of each alias is registered, so
	// churn checks re-register only what changed.
	versions map[string]int
}

func newReference() *reference {
	db := hummer.New(hummer.WithoutCache(), hummer.WithParallelism(1))
	return &reference{
		db: db,
		handler: server.New(db,
			server.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
		).Handler(),
		versions: map[string]int{},
	}
}

// set installs version v of src unless it is already installed.
func (r *reference) set(src source, v int) error {
	if cur, ok := r.versions[src.alias]; ok && cur == v {
		return nil
	}
	if err := r.db.ReplaceTable(src.alias, src.rel); err != nil {
		return fmt.Errorf("reference: replace %s: %w", src.alias, err)
	}
	r.versions[src.alias] = v
	return nil
}

// expect returns the reference body for req, batch timings stripped,
// and its digest.
func (r *reference) expect(req request) (digest, []byte, error) {
	rec := record(r.handler, req)
	if rec.Code/100 != 2 {
		return 0, nil, fmt.Errorf("reference: %s %s: status %d: %s", req.method, req.path, rec.Code, rec.Body.String())
	}
	body := rec.Body.Bytes()
	if req.path == "/v1/batch" {
		body = stripSeconds(body)
	}
	return digestOf(body), body, nil
}

// fusedLineage is the part of a /v1/query response dup_f1 reads.
type fusedLineage struct {
	Lineage [][]struct {
		Origins []string `json:"origins"`
	} `json:"lineage"`
}

// pairCounts are the pairwise counts behind dup_f1, pooled over every
// fused answer a run scores.
type pairCounts struct {
	predicted, correct, actual int
}

func (c *pairCounts) add(o pairCounts) {
	c.predicted += o.predicted
	c.correct += o.correct
	c.actual += o.actual
}

// f1 is the pairwise F1 score.
func (c pairCounts) f1() float64 {
	if c.predicted == 0 || c.actual == 0 || c.correct == 0 {
		return 0
	}
	p := float64(c.correct) / float64(c.predicted)
	r := float64(c.correct) / float64(c.actual)
	return 2 * p * r / (p + r)
}

// dupPairs rebuilds the fused clusters from a lineage response and
// counts their row pairs against the ground-truth entities of the two
// sources' rows. A cell's lineage names the rows that supplied its
// value (all non-NULL contributors for a computed value such as
// concat), so the union over a fused row's cells is the set of rows
// fused into it, short of rows that supplied no cell. An origin names
// its source and its row in the merged table, the outer union of the
// sources in query order.
func dupPairs(body []byte, left, right source) (pairCounts, error) {
	var c pairCounts
	var resp fusedLineage
	if err := json.Unmarshal(body, &resp); err != nil {
		return c, fmt.Errorf("dup_f1: decode: %w", err)
	}
	entityOf := func(origin string) (int, error) {
		alias, row, _ := strings.Cut(origin, ":")
		m, err := strconv.Atoi(row)
		switch {
		case err != nil:
		case alias == left.alias && m >= 0 && m < len(left.entities):
			return left.entities[m], nil
		case alias == right.alias && m >= len(left.entities) && m-len(left.entities) < len(right.entities):
			return right.entities[m-len(left.entities)], nil
		}
		return 0, fmt.Errorf("dup_f1: unknown origin %q", origin)
	}
	for _, cells := range resp.Lineage {
		seen := map[string]bool{}
		var ents []int
		for _, cell := range cells {
			for _, o := range cell.Origins {
				if seen[o] {
					continue
				}
				seen[o] = true
				e, err := entityOf(o)
				if err != nil {
					return c, err
				}
				ents = append(ents, e)
			}
		}
		for i := range ents {
			for j := i + 1; j < len(ents); j++ {
				c.predicted++
				if ents[i] == ents[j] {
					c.correct++
				}
			}
		}
	}
	perEntity := map[int]int{}
	for _, e := range append(append([]int(nil), left.entities...), right.entities...) {
		perEntity[e]++
	}
	for _, k := range perEntity {
		c.actual += k * (k - 1) / 2
	}
	return c, nil
}
