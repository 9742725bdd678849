// Command perfbench is ObjectRunner's end-to-end benchmark. One process
// generates the five-domain sitegen corpus from --seed, starts a real
// objectrunnerd with its shipped defaults on loopback, replays one
// workload over HTTP with at most nproc connections, checks the outputs
// (discard set, Pc/Pp quality against the golden standard, and a seeded
// sample of responses against the tree-path oracle) and prints every
// metric by name and unit. With --trace 1 it instead replays the same
// inputs in-process through each layer's public functions and prints the
// per-layer metrics (see trace.go and README.md).
//
// Usage, from the repository root (run.sh builds both programs first):
//
//	bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 16 --trace 0
//	bash perfbench/run.sh compare <results-dir-a> <results-dir-b>
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(os.Args[1:], "BENCHMARK.json", os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	daemon   string
	results  string
}

func parseFlags(argv []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&c.seed, "seed", 1, "corpus and request-mix seed")
	fs.IntVar(&c.seconds, "seconds", 16, "each of the three extract blocks runs 3/16 of it, and serve_hot's open loop a quarter (the wrap passes are whole passes)")
	fs.IntVar(&trace, "trace", 0, "1 = traced in-process replay printing the per-layer metrics")
	fs.StringVar(&c.daemon, "daemon", ".bench_build/objectrunnerd", "objectrunnerd binary")
	fs.StringVar(&c.results, "results", ".bench_build/results", "directory the full result records are written to")
	if err := fs.Parse(argv); err != nil {
		return c, err
	}
	if _, ok := workloads[c.workload]; !ok {
		return c, fmt.Errorf("unknown workload %q (want one of %v)", c.workload, workloadNames())
	}
	if c.seconds < 1 {
		return c, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("--trace must be 0 or 1")
	}
	c.trace = trace == 1
	if _, err := os.Stat(c.daemon); err != nil {
		return c, fmt.Errorf("daemon binary: %w", err)
	}
	return c, nil
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json perfbench reads. It is the one
// declaration of the metrics: a run reports them by these names, in
// these units, and compare judges them against these bounds.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// metrics are the metrics a run reports: the end-to-end ones untraced,
// the per-layer ones traced.
func (sp *spec) metrics(trace bool) []metricSpec {
	if trace {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's full record: the printed line plus the machine
// shape and the details behind the numbers.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Shape     shape             `json:"shape"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Details   map[string]any    `json:"details"`
	Problems  []string          `json:"problems,omitempty"`

	spec *spec
}

func newResult(sp *spec) *result {
	return &result{Correct: true, Metrics: make(map[string]metric), Details: make(map[string]any), spec: sp}
}

// line is the contract's last line of output.
func (r *result) line() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// set records a metric in the unit BENCHMARK.json declares for it. A
// name the run does not declare gets no unit, and checkMetrics refuses
// it.
func (r *result) set(name string, v float64) {
	unit := ""
	for _, m := range r.spec.metrics(r.Trace) {
		if m.Name == name {
			unit = m.Unit
		}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// failures counts n failed operations of the run. Any failed operation
// fails the run: the benchmark's workloads are chosen so that none does.
func (r *result) failures(n int, what string) {
	if n > 0 {
		r.Failed += n
		r.fail("%d %s failed", n, what)
	}
}

// fail records a correctness problem: the run's outputs are wrong.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func run(argv []string, specPath string, stderr io.Writer) (*result, error) {
	cfg, err := parseFlags(argv, stderr)
	if err != nil {
		return nil, err
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	res := newResult(sp)
	res.Workload, res.Seed, res.Seconds, res.Trace = cfg.workload, cfg.seed, cfg.seconds, cfg.trace
	set, err := genCorpora(cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		// The traced run wraps every source twice in-process; the first
		// corpus keeps it within a few minutes.
		err = traceRun(ctx, cfg, set[0], res)
	} else {
		err = workloads[cfg.workload](ctx, cfg, set, res)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted = max(res.Attempted, 1)
	if err := checkMetrics(res); err != nil {
		return nil, err
	}
	for _, p := range res.Problems {
		fmt.Fprintln(stderr, "perfbench: CHECK FAILED:", p)
	}
	if err := writeResult(cfg, res); err != nil {
		return nil, err
	}
	summarize(stderr, res)
	return res, nil
}

// checkMetrics verifies that a run produced exactly the metrics
// BENCHMARK.json declares for its mode, each finite and above zero: a
// relative bound means nothing on a value that can read 0 or less.
func checkMetrics(res *result) error {
	want := res.spec.metrics(res.Trace)
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", m.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value <= 0:
			return fmt.Errorf("metric %s = %v, want a finite value above zero", m.Name, got.Value)
		}
	}
	if len(res.Metrics) != len(want) {
		for n := range res.Metrics {
			if res.Metrics[n].Unit == "" {
				return fmt.Errorf("metric %s is not declared in BENCHMARK.json", n)
			}
		}
		return fmt.Errorf("run produced %d metrics, %d declared", len(res.Metrics), len(want))
	}
	return nil
}

func writeResult(cfg config, res *result) error {
	if err := os.MkdirAll(cfg.results, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s_seed%d_trace%d.json", cfg.workload, cfg.seed, boolInt(cfg.trace))
	path := filepath.Join(cfg.results, name)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func summarize(w io.Writer, res *result) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v shape=%+v go=%s\n",
		res.Workload, res.Seed, res.Trace, res.Shape, runtime.Version())
	for _, sm := range res.spec.metrics(res.Trace) {
		m := res.Metrics[sm.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", sm.Name, m.Value, m.Unit)
	}
	d, _ := json.Marshal(res.Details)
	fmt.Fprintf(w, "  details %s\n", d)
}
