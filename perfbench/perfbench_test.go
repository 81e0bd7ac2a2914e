package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at the tiny scale and decodes its result
// line.
func runTiny(t *testing.T, workload, trace string, extra ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := append([]string{"--workload", workload, "--seed", "7", "--seconds", "1", "--scale", "tiny", "--trace", trace}, extra...)
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String()
}

// TestWorkloadsPrintEveryMetric runs every workload untraced and traced
// at the tiny scale: each must pass its output checks and print every
// metric it owes, by name and with its unit.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for name := range workloads {
		code, res, out := runTiny(t, name, "0")
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: code %d, result %+v\n%s", name, code, res, out)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit || got.Value <= 0 {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", name, m.name, got, m.unit)
			}
		}
		if !hasLine(out, name+" error_rate 0", " ratio") {
			t.Errorf("%s: no error_rate line:\n%s", name, out)
		}
		for _, m := range reported {
			if m.on != nil && !slices.Contains(m.on, name) {
				continue
			}
			if !hasLine(out, name+" "+m.name+" ", " "+m.unit) {
				t.Errorf("%s: no %s line in %s:\n%s", name, m.name, m.unit, out)
			}
		}

		code, res, out = runTiny(t, name, "1")
		if code != 0 || !res.Correct {
			t.Fatalf("%s traced: code %d, result %+v\n%s", name, code, res, out)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics, want %d", name, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("%s traced: metric %s = %+v, want unit %s", name, m.name, got, m.unit)
			}
		}
	}
}

// hasLine reports whether out has a line with the given prefix and suffix.
func hasLine(out, prefix, suffix string) bool {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) && strings.HasSuffix(line, suffix) {
			return true
		}
	}
	return false
}

// TestCorruptReferenceFails checks that the output checks fail a run:
// with every reference digest corrupted, no workload may pass.
func TestCorruptReferenceFails(t *testing.T) {
	for name := range workloads {
		code, res, out := runTiny(t, name, "0", "--corrupt-reference")
		if code != 1 || res.Correct {
			t.Errorf("%s: corrupted reference gave code %d, correct=%v\n%s", name, code, res.Correct, out)
		}
	}
}

// TestStripSeconds checks that batch timings are the only bytes the
// batch digest ignores.
func TestStripSeconds(t *testing.T) {
	in := `{"results":[{"row_count":1,"seconds":0.0012},{"row_count":2,"seconds":1e-05}]}`
	want := `{"results":[{"row_count":1},{"row_count":2}]}`
	if got := string(stripSeconds([]byte(in))); got != want {
		t.Errorf("stripSeconds = %s, want %s", got, want)
	}
}
