// Command perfbench is the end-to-end benchmark of on-device adaptation
// and serving. It drives the program only through its public functions and
// measures what a device's user waits for:
//
//	adapt      one device adapts core.DefaultConfig() from a seeded
//	           initialisation: Compress, a fixed number of TuneSteps,
//	           FinishTuning, then voted inference on held-out prompts
//	serve_f32  open-loop Poisson traffic plus an offline burst into an
//	           in-process serve.Server (float32 block weights)
//	serve_luc  the same traffic and model with block weights packed by
//	           the LUC policy at 3.5 average bits
//
// BENCHMARK.json lists adapt and serve_luc. serve_f32 runs the same way
// but is left out of the gated list: on a shared 2-vCPU host, while other
// tenants loaded it, serve_f32's open-loop latencies rose 1.5–2.4× in a
// period that left serve_luc within 15%, and no bound absorbs that.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload adapt --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end_to_end list of BENCHMARK.json; with --trace 1 the run is made twice,
// untraced and then traced, and the metrics are the per_layer list, which
// includes the tracing overhead. Any failed output check prints the result
// with "correct": false and exits 1. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one named measurement with the number of samples behind it
// (1 for a single measurement, 0 when the layer did no work).
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// report collects one workload run's metrics and output checks.
type report struct {
	e2e, layer []metric
	attempted  int
	failed     int
	// checks lists failed output checks; any entry makes the run incorrect.
	checks []string
	// notes are human-readable lines (estimates next to measurements,
	// generator lateness) printed before the result.
	notes []string
}

func (r *report) addE2E(name, unit string, v float64, n int) {
	r.e2e = append(r.e2e, metric{name, unit, v, n})
}

func (r *report) addLayer(name, unit string, v float64, n int) {
	r.layer = append(r.layer, metric{name, unit, v, n})
}

func (r *report) checkf(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) e2eValue(name string) float64 {
	for _, m := range r.e2e {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// inject deliberately corrupts one output ("corrupt_token" or
	// "nan_loss") so the self-test can prove the checks fail the run.
	inject string
	// traced is set on the traced pass of a --trace 1 run.
	traced bool
}

// spec mirrors the metric lists of BENCHMARK.json, the single source of
// truth for metric names and units.
type spec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var workloads = map[string]func(options) (*report, error){
	"adapt":     runAdapt,
	"serve_f32": func(o options) (*report, error) { return runServe(o, false) },
	"serve_luc": func(o options) (*report, error) { return runServe(o, true) },
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose result was printed but failed a check.
var errIncorrect = errors.New("output checks failed")

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: adapt, serve_f32 or serve_luc")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics from an extra traced pass")
	fs.StringVar(&o.inject, "inject", "", "self-test only: corrupt_token or nan_loss")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be ≥ 1, got %d", o.seconds)
	}
	if o.inject != "" && o.inject != "corrupt_token" && o.inject != "nan_loss" {
		return fmt.Errorf("--inject must be corrupt_token or nan_loss, got %q", o.inject)
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	fmt.Printf("meta %s\n", metaJSON(o))

	rep, err := fn(o)
	if err != nil {
		return err
	}
	if o.trace {
		untraced := rep
		o.traced = true
		if rep, err = fn(o); err != nil {
			return err
		}
		rep.checks = append(untraced.checks, rep.checks...)
		rep.attempted += untraced.attempted
		rep.failed += untraced.failed
		for _, m := range []struct{ name, unit string }{
			{"step_ms_p50", "ms"}, {"tok_s", "tok/s"}, {"ttft_ms_short_p50", "ms"},
		} {
			rep.addLayer("trace.overhead."+m.name, m.unit, rep.e2eValue(m.name)-untraced.e2eValue(m.name), 1)
		}
		printMetrics("untraced end-to-end", untraced.e2e)
		printMetrics("traced end-to-end", rep.e2e)
	}
	return emit(sp, o, rep)
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("load metric list: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("load metric list: %s: %w", path, err)
	}
	return &sp, nil
}

func metaJSON(o options) string {
	b, _ := json.Marshal(map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	})
	return string(b)
}

func printMetrics(title string, ms []metric) {
	fmt.Printf("%s:\n", title)
	for _, m := range ms {
		fmt.Printf("  %-34s %14.6g %-8s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
}

// emit prints the report and the result line. The result's metrics are
// exactly the BENCHMARK.json list for the mode; a per-layer metric the
// workload did not measure is 0 (that layer did no work in it).
func emit(sp *spec, o options, rep *report) error {
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	got := rep.e2e
	type want struct{ Name, Unit string }
	var wants []want
	if o.trace {
		got = rep.layer
		for _, m := range sp.PerLayer {
			wants = append(wants, want(m))
		}
	} else {
		for _, m := range sp.EndToEnd {
			wants = append(wants, want(m))
		}
	}
	byName := map[string]metric{}
	for _, m := range got {
		if _, dup := byName[m.Name]; dup {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		byName[m.Name] = m
	}
	out := map[string]any{}
	var printed []metric
	for _, w := range wants {
		m, ok := byName[w.Name]
		switch {
		case !ok && !o.trace:
			return fmt.Errorf("workload %s did not measure end-to-end metric %s", o.workload, w.Name)
		case !ok:
			m = metric{Name: w.Name, Unit: w.Unit}
		case m.Unit != w.Unit:
			return fmt.Errorf("metric %s has unit %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
		}
		delete(byName, w.Name)
		if !finite(m.Value) {
			rep.checkf("metric %s is not finite (%v)", m.Name, m.Value)
			m.Value = 0
		}
		printed = append(printed, m)
		out[w.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	if len(byName) > 0 {
		extra := make([]string, 0, len(byName))
		for n := range byName {
			extra = append(extra, n)
		}
		sort.Strings(extra)
		return fmt.Errorf("metrics missing from BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	printMetrics("metrics", printed)
	for _, c := range rep.checks {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", c)
	}
	correct := len(rep.checks) == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": out,
	})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	if !correct {
		return errIncorrect
	}
	return nil
}

// outDir is where a traced run leaves its trace files, inside the
// checkout's build directory.
func outDir() (string, error) {
	dir := filepath.Join(".bench_build", "perfbench-out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create %s: %w", dir, err)
	}
	return dir, nil
}
