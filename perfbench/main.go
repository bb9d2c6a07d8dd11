// Command perfbench is the repository's end-to-end benchmark. It drives
// the real recipeserver binary over loopback HTTP and the real
// `recipemine mine` binary on inputs generated from -seed, checks every
// output, and prints one JSON result line last:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (see metrics.go);
// with -trace 1 a separate traced run reports per-layer figures from
// spans the benchmark records around its own calls into each module.
// Build and run it through run.sh, which builds the binaries first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	hot  bool // heavy-tail mix; otherwise every phrase is distinct
}

var workloads = []workload{
	{
		name: "annotate-hot",
		why:  "heavy-tail mix: 90% of phrases from 20 hot ones, so requests exercise the HTTP, JSON and cache-hit layers and almost never the model",
		hot:  true,
	},
	{
		name: "annotate-unique",
		why:  "every phrase distinct, so every request misses the cache and decode (sanitize, tokenize, NER, record assembly) and the batch pool dominate",
	},
}

// mineWhy is the reason every run also mines recipes.
const mineWhy = "recipemine mine is the only path through the instruction stack, the per-recipe pool and checkpointed writes"

// config is one benchmark invocation.
type config struct {
	wl      workload
	seed    int64
	seconds int
	trace   bool
	bin     string // directory holding recipeserver and recipemine
	work    string // temporary directory of this invocation
	results string // directory the result files are written to
	model   string // trained bundle
	conns   int    // nproc: the traced run's connections and worker sweeps
}

func main() {
	name := flag.String("workload", "", "workload to run: annotate-hot or annotate-unique")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 25, "seconds of measurement, split across the run's phases")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	bin := flag.String("bin", "", "directory holding the recipeserver and recipemine binaries")
	work := flag.String("work", ".bench_build", "directory for temporary files and result files")
	flag.Parse()

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, conns: runtime.NumCPU()}
	for _, w := range workloads {
		if w.name == *name {
			cfg.wl = w
		}
	}
	switch {
	case cfg.wl.name == "":
		fatal(fmt.Errorf("unknown workload %q", *name))
	case *seconds < 1:
		fatal(errors.New("-seconds must be at least 1"))
	case *trace != 0 && *trace != 1:
		fatal(errors.New("-trace must be 0 or 1"))
	case *bin == "":
		fatal(errors.New("-bin is required"))
	}
	cfg.results = filepath.Join(*work, "results")
	if err := os.MkdirAll(cfg.results, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fatal(err)
	}
	cfg.work = dir
	cfg.model = filepath.Join(dir, "model.bin")
	res, err := run(cfg)
	_ = os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	if err := checkManifest("BENCHMARK.json", cfg.trace, res.Metrics); err != nil {
		res.fail("%v", err)
	}
	if err := res.write(cfg); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run trains the bundle, then runs the end-to-end or the traced run.
func run(cfg config) (*result, error) {
	res := newResult(cfg)
	if err := train(cfg.bin, cfg.model); err != nil {
		return nil, err
	}
	res.lap("train")
	var err error
	if cfg.trace {
		err = runTraced(cfg, res)
	} else {
		err = runEndToEnd(cfg, res)
	}
	return res, err
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opCount is the per-phase tally of operations.
type opCount struct {
	Phase     string  `json:"phase"`
	Sent      int64   `json:"sent"`
	Succeeded int64   `json:"succeeded"`
	Failed    int64   `json:"failed"`
	Seconds   float64 `json:"seconds"`
	Samples   int     `json:"samples"`
	Exhausted bool    `json:"pool_exhausted,omitempty"`
}

// result is everything one invocation reports; the last stdout line
// carries only its first four fields.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string             `json:"workload"`
	Why      map[string]string  `json:"why"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	CPU      string             `json:"cpu_model"`
	NProc    int                `json:"nproc"`
	Go       string             `json:"go_version"`
	Phases   []opCount          `json:"phases"`
	Problems []string           `json:"problems,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
	Timeline map[string]float64 `json:"timeline_s"`
	Details  map[string]any     `json:"details,omitempty"`

	lapStart time.Time
}

func newResult(cfg config) *result {
	return &result{
		Correct:  true,
		Metrics:  map[string]metricValue{},
		Workload: cfg.wl.name,
		Why:      map[string]string{cfg.wl.name: cfg.wl.why, "mine": mineWhy},
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Trace:    cfg.trace,
		CPU:      cpuModel(),
		NProc:    runtime.NumCPU(),
		Go:       runtime.Version(),
		Timeline: map[string]float64{},
		Details:  map[string]any{},
		lapStart: time.Now(),
	}
}

// lap records the wall time since the previous lap under name.
func (r *result) lap(name string) {
	r.Timeline[name] += time.Since(r.lapStart).Seconds()
	r.lapStart = time.Now()
}

// set records a metric, taking its unit from the metric table.
func (r *result) set(name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// fail marks the run incorrect with a reason.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// addPhase tallies a finished phase into the operation counts.
func (r *result) addPhase(p phaseResult) {
	r.Phases = append(r.Phases, opCount{
		Phase: p.name, Sent: p.sent, Succeeded: p.ok, Failed: p.failed,
		Seconds: p.dur.Seconds(), Samples: p.stats.samples, Exhausted: p.exhausted,
	})
	r.Attempted += p.sent
	r.Failed += p.failed
	if p.failed > 0 {
		r.fail("%s: %d of %d operations failed: %s", p.name, p.failed, p.sent, strings.Join(p.errs, "; "))
	}
}

// write saves the full result file, prints a readable summary, and
// prints the result line last.
func (r *result) write(cfg config) error {
	full, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if r.Trace {
		mode = "trace"
	}
	path := filepath.Join(cfg.results, fmt.Sprintf("%s-seed%d-%s.json", r.Workload, r.Seed, mode))
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("workload %s (seed %d, %ds, %s): %s\n", r.Workload, r.Seed, r.Seconds, mode, r.Why[r.Workload])
	fmt.Printf("machine: %s, nproc %d, %s\n", r.CPU, r.NProc, r.Go)
	for _, p := range r.Phases {
		fmt.Printf("phase %-16s sent %8d  succeeded %8d  failed %4d  %6.2fs  %7d samples\n",
			p.Phase, p.Sent, p.Succeeded, p.Failed, p.Seconds, p.Samples)
	}
	for _, n := range r.Notes {
		fmt.Println(n)
	}
	for _, m := range metricOrder(r.Metrics) {
		fmt.Printf("%-36s %14.4f %s\n", m, r.Metrics[m].Value, r.Metrics[m].Unit)
	}
	for _, p := range r.Problems {
		fmt.Println("problem:", p)
	}
	fmt.Println("result file:", path)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// cpuModel reads the processor model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// elapsed returns the seconds since t0.
func elapsed(t0 time.Time) float64 { return time.Since(t0).Seconds() }
