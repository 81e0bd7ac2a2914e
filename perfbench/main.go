// Command perfbench is HumMer's end-to-end benchmark. It starts
// hummerd (server.Handler() behind a loopback listener) in process,
// registers seeded, generated sources through POST /v1/sources, drives
// one workload over HTTP with at most one connection per CPU, checks
// every response against a cache-free reference, and prints the
// workload's metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	perfbench --workload cold_fuse|warm_serve|churn --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate
// run that feeds the workload's own inputs through each layer's public
// entry points and reports the per-layer metrics instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// Seeds recorded with the benchmark: the default, and one held out
// from tuning for confirming a claimed gain.
const (
	defaultSeed = 1
	heldOutSeed = 20261017
)

// endToEnd lists the end-to-end metrics every untraced run reports in
// its result line, with their units: the ones steady enough from run to
// run on a shared machine to gate a change. latency_ms and ttfr_ms are
// the 10th percentile on the closed loop and the median on the open
// loops (see closedLoopQuantile).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"ttfr_ms", "ms"},
	{"dup_f1", "ratio"},
	{"heap_peak_mb", "MB"},
}

// reported lists the end-to-end metrics printed before the result line
// but not gated, with the workloads that print them (nil: all). Machine
// drift moves them by a quarter or more between runs of the same code:
// cold_fuse's medians with the share of requests the neighbours slow
// (the open loops' medians are gated, as latency_ms and ttfr_ms), tails
// and saturation throughput most of all, and churn's p90 falls between
// its fast reads and the recompute-bound ones. error_rate is printed
// beside them; a correct run has none.
var reported = []struct {
	name, unit string
	on         []string
}{
	{"latency_p50_ms", "ms", nil},
	{"ttfr_p50_ms", "ms", nil},
	{"latency_p90_ms", "ms", nil},
	{"latency_p99_ms", "ms", nil},
	{"input_rows_per_s", "rows/s", nil},
	{"sustained_qps", "req/s", nil},
	{"write_p50_ms", "ms", []string{"churn"}},
	{"gen.lag_p99_ms", "ms", []string{"warm_serve", "churn"}},
}

type workload func(context.Context, options) (*report, error)

var workloads = map[string]workload{
	"cold_fuse":  coldFuse,
	"warm_serve": warmServe,
	"churn":      churn,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark invocation and returns the exit code:
// 0 when every check passed, 1 when an output check failed (the result
// line says correct=false), 2 when the run could not be made.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold_fuse, warm_serve or churn")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 = per-layer traced run instead of the end-to-end run")
	scaleName := fs.String("scale", "full", "input scale: full, or tiny for the smoke test")
	corrupt := fs.Bool("corrupt-reference", false, "corrupt every reference digest (the run must fail)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	opt := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), corrupt: *corrupt}
	switch *scaleName {
	case "full":
		opt.sc = fullScale
	case "tiny":
		opt.sc = tinyScale
	default:
		fmt.Fprintf(stderr, "perfbench: unknown scale %q\n", *scaleName)
		return 2
	}
	if opt.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	// Calibrate with every CPU the process may use, then measure on one
	// P: on a shared machine that gives between one and two effective
	// cores, one P keeps the figures from swinging with whether a second
	// core happens to be free.
	cores := calibrateCores()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d scale=%s nproc=%d gomaxprocs=%d conns=%d calib.effective_cores=%.2f\n",
		*name, opt.seed, *seconds, *trace, *scaleName, runtime.NumCPU(), runtime.GOMAXPROCS(0), connections(), cores)

	ctx := context.Background()
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = traced(ctx, *name, opt)
		if rep != nil {
			rep.metrics["calib.effective_cores"] = cores
		}
	} else {
		rep, err = wl(ctx, opt)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}

	for _, n := range rep.notes {
		fmt.Fprintln(stdout, "# "+n)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	if *trace == 1 {
		for _, m := range perLayer {
			out[m.name] = metric{Value: rep.metrics[m.name], Unit: m.unit}
		}
	} else {
		for _, m := range endToEnd {
			out[m.name] = metric{Value: rep.metrics[m.name], Unit: m.unit}
		}
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%s %s %s %s\n", *name, n, formatValue(out[n].Value), out[n].Unit)
	}
	if *trace == 0 {
		rate := 0.0
		if rep.attempted > 0 {
			rate = float64(rep.failed) / float64(rep.attempted)
		}
		fmt.Fprintf(stdout, "%s error_rate %s ratio\n", *name, formatValue(rate))
		for _, m := range reported {
			if v, ok := rep.metrics[m.name]; ok {
				fmt.Fprintf(stdout, "%s %s %s %s\n", *name, m.name, formatValue(v), m.unit)
			}
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "perfbench: check failed: "+p)
	}
	for n, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s has no value\n", n)
			return 2
		}
	}
	correct := len(rep.problems) == 0 && rep.attempted > 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }
