// Command benchjson converts `go test -bench` output on stdin into a JSON
// perf record and enforces metric budgets, so CI can both archive the perf
// trajectory (BENCH_pr8.json) and fail when a hot path regresses.
//
// Usage:
//
//	go test -run=NONE -bench=... -benchmem . ./search | \
//	    go run ./internal/tools/benchjson -out BENCH_pr8.json \
//	        -limit 'PredictBatchInto:allocs/op:0' \
//	        -min 'PredictBatchDVFS:configs/s:1000000' \
//	        -ratio 'SearchRandom:evals/s:SearchEvaluatorKernel:evals/s:0.833'
//
// Every benchmark line becomes an entry keyed by its name (the -<procs>
// suffix stripped), holding iterations plus each reported metric verbatim
// ("ns/op", "configs/s", "allocs/config", ...). Budgets are repeatable and
// fail the run when the named benchmark or metric is missing:
//
//   - -limit NAME:METRIC:MAX   fails if the metric exceeds MAX
//   - -min   NAME:METRIC:MIN   fails if the metric is below MIN
//   - -ratio A:MA:B:MB:MIN     fails if A's MA divided by B's MB is below
//     MIN — e.g. the search driver's evals/s must stay within 1.2× of the
//     raw kernel's (ratio ≥ 1/1.2 ≈ 0.833)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// benchLine matches "BenchmarkName[-procs]  iterations  v unit  v unit ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+(\d+)\s+(.*)$`)

type entry struct {
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type record struct {
	SchemaVersion int    `json:"schema_version"`
	PR            int    `json:"pr"`
	Note          string `json:"note,omitempty"`
	// Seed records the prior PR's achieved numbers (BENCH_pr4.json: the
	// []*Result batch adapter, the 1-worker engine batch, and the random
	// search driver) so the trajectory is readable from this file alone.
	Seed     map[string]float64 `json:"seed_baseline"`
	Benches  map[string]entry   `json:"benchmarks"`
	Failures []string           `json:"budget_failures,omitempty"`
}

type budgets []string

func (l *budgets) String() string     { return strings.Join(*l, ",") }
func (l *budgets) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	var (
		out                = flag.String("out", "BENCH_pr8.json", "output JSON path (- for stdout)")
		pr                 = flag.Int("pr", 8, "PR number stamped into the record")
		note               = flag.String("note", "zero-alloc struct-of-arrays batch kernel: EvaluateRangeInto + batch-local memo caches; DVFS fast path >1M configs/s", "note stamped into the record")
		lims, mins, ratios budgets
	)
	flag.Var(&lims, "limit", "budget NAME:METRIC:MAX (repeatable); fail if exceeded or missing")
	flag.Var(&mins, "min", "floor NAME:METRIC:MIN (repeatable); fail if below or missing")
	flag.Var(&ratios, "ratio", "floor A:METRICA:B:METRICB:MIN (repeatable); fail if A/B below MIN or missing")
	flag.Parse()

	rec := record{
		SchemaVersion: 1,
		PR:            *pr,
		Note:          *note,
		Seed: map[string]float64{
			"pr4_predict_batch_configs_per_s":     214629,
			"pr4_predict_batch_allocs_per_config": 3.148,
			"pr4_engine_evaluate_configs_per_s":   132684,
			"pr4_search_random_evals_per_s":       156971,
		},
		Benches: make(map[string]entry),
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			continue
		}
		e := entry{Iterations: iters, Metrics: make(map[string]float64)}
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			e.Metrics[fields[i+1]] = v
		}
		rec.Benches[strings.TrimPrefix(m[1], "Benchmark")] = e
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	if len(rec.Benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	// metric resolves NAME:METRIC against the parsed benchmarks, recording a
	// failure (and returning ok=false) when either is absent.
	metric := func(name, met string) (float64, bool) {
		e, ok := rec.Benches[name]
		if !ok {
			rec.Failures = append(rec.Failures, fmt.Sprintf("benchmark %q missing", name))
			return 0, false
		}
		v, ok := e.Metrics[met]
		if !ok {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: metric %q missing", name, met))
			return 0, false
		}
		return v, true
	}

	for _, lim := range lims {
		parts := strings.Split(lim, ":")
		if len(parts) != 3 {
			fmt.Fprintf(os.Stderr, "benchjson: bad -limit %q (want NAME:METRIC:MAX)\n", lim)
			os.Exit(2)
		}
		maxV, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad -limit max %q: %v\n", parts[2], err)
			os.Exit(2)
		}
		if v, ok := metric(parts[0], parts[1]); ok && v > maxV {
			rec.Failures = append(rec.Failures,
				fmt.Sprintf("%s: %s = %g exceeds budget %g", parts[0], parts[1], v, maxV))
		}
	}

	for _, min := range mins {
		parts := strings.Split(min, ":")
		if len(parts) != 3 {
			fmt.Fprintf(os.Stderr, "benchjson: bad -min %q (want NAME:METRIC:MIN)\n", min)
			os.Exit(2)
		}
		minV, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad -min floor %q: %v\n", parts[2], err)
			os.Exit(2)
		}
		if v, ok := metric(parts[0], parts[1]); ok && v < minV {
			rec.Failures = append(rec.Failures,
				fmt.Sprintf("%s: %s = %g below floor %g", parts[0], parts[1], v, minV))
		}
	}

	for _, rat := range ratios {
		parts := strings.Split(rat, ":")
		if len(parts) != 5 {
			fmt.Fprintf(os.Stderr, "benchjson: bad -ratio %q (want A:METRICA:B:METRICB:MIN)\n", rat)
			os.Exit(2)
		}
		minV, err := strconv.ParseFloat(parts[4], 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad -ratio floor %q: %v\n", parts[4], err)
			os.Exit(2)
		}
		num, okA := metric(parts[0], parts[1])
		den, okB := metric(parts[2], parts[3])
		if !okA || !okB {
			continue
		}
		if den == 0 {
			rec.Failures = append(rec.Failures,
				fmt.Sprintf("%s: %s is zero, ratio undefined", parts[2], parts[3]))
			continue
		}
		if r := num / den; r < minV {
			rec.Failures = append(rec.Failures,
				fmt.Sprintf("%s:%s / %s:%s = %.3f below floor %g",
					parts[0], parts[1], parts[2], parts[3], r, minV))
		}
	}

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: marshal: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write %s: %v\n", *out, err)
		os.Exit(1)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(os.Stderr, "benchjson: BUDGET FAILURE: %s\n", f)
	}
	if len(rec.Failures) > 0 {
		os.Exit(1)
	}
}
