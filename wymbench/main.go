// Command wymbench is the end-to-end benchmark of the WYM entity matcher.
// It trains a model with the wym CLI, serves it with wym-server and
// wym-router or matches tables with `wym match`, drives the programs
// from outside over loopback, checks every decision against the model
// loaded in-process, and prints one JSON result line.
//
//	bash wymbench/run.sh --workload serve-online --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// a traced run replays the workload's inputs through each layer's public
// functions and reports per-layer numbers instead. METRICS.md defines
// every metric and the workload each one should move on.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // directory holding the built wym binaries
	work     string // directory the run may write under
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *run) error{
	"serve-online": serveOnline,
	"batch-routed": batchRouted,
	"table-match":  tableMatch,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: serve-online, batch-routed or table-match")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 for a traced run reporting per-layer metrics")
	flag.StringVar(&o.bin, "bin", "", "directory holding the wym, wym-server and wym-router binaries")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for models, logs, traces and results")
	flag.Parse()
	o.trace = traceFlag == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || o.bin == "" || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "wymbench: need -bin, -seconds >= 1, -trace 0|1 and -workload one of %v\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(benchProcs())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := execute(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wymbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wymbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// benchProcs is the GOMAXPROCS of the benchmark process and of the CLI
// processes it runs (training, conversion, table matching), and the load
// generator's connection count: one per CPU, capped at two so runs on
// larger hosts keep the same shape.
func benchProcs() int { return min(runtime.NumCPU(), 2) }

// execute runs one workload in a fresh directory under o.work, writes
// its detail report, and removes the directory.
func execute(ctx context.Context, o options) (*result, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	results := filepath.Join(o.work, "results")
	if err := os.MkdirAll(results, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, "run-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &run{
		opts:    o,
		root:    root,
		dir:     dir,
		env:     stampEnv(root),
		metrics: map[string]metric{},
		detail:  map[string]any{},
		tr:      newTracer(),
	}
	defer r.stopAll()
	if err := workloads[o.workload](ctx, r); err != nil {
		return nil, err
	}
	r.stopAll()
	r.env.CPU = map[string]int{}
	for _, p := range r.procs {
		r.env.GOMAXPROCS[p.Name] = p.GOMAXPROCS
		if p.CPU >= 0 {
			r.env.CPU[p.Name] = p.CPU
		}
	}

	base := filepath.Join(results, fmt.Sprintf("%s-seed%d-trace%d-%d", o.workload, o.seed, boolInt(o.trace), time.Now().UnixNano()))
	if o.trace {
		if err := writeSpans(base+".spans.jsonl", r.tr.spans); err != nil {
			return nil, err
		}
		r.detail["spans_file"] = base + ".spans.jsonl"
	}
	r.detail["env"] = r.env
	r.detail["workload"] = o.workload
	r.detail["seed"] = o.seed
	r.detail["trace"] = o.trace
	r.detail["metrics"] = r.metrics
	if o.trace {
		r.detail["layer_map"] = perLayer
	}
	raw, err := json.MarshalIndent(r.detail, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".json", raw, 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("# env: nproc=%d cpu=%q go=%s commit=%s source=%s gomaxprocs=%v pinned=%v\n",
		r.env.NumCPU, r.env.CPUModel, r.env.GoVersion, r.env.Commit, r.env.SourceFP, r.env.GOMAXPROCS, r.env.CPU)
	fmt.Printf("# detail: %s.json\n", base)

	want := endToEnd
	if o.trace {
		want = perLayer
	}
	res := &result{
		Correct:   r.failed == 0 && len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, v := range r.violations {
		fmt.Printf("# check failed: %s\n", v)
	}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not report %s", o.workload, m.Name)
		}
		res.Metrics[m.Name] = v
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("workload %s attempted no operations", o.workload)
	}
	return res, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
