package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"wym/internal/core"
	"wym/internal/data"
	"wym/internal/datagen"
	"wym/internal/pipeline"
)

// Training and setup settings shared by the workloads.
const (
	// trainScale is the training size passed to `wym train -scale`: 60
	// pairs, the generator's floor, so three set-ups stay a minor share
	// of a run while still training every stage.
	trainScale = "0.005"
	// trainSeed fixes the model: it depends only on the code under test.
	trainSeed = "1"
	// setupReps is how many times an untraced run sets up; setup_s is
	// the median. A traced run sets up once.
	setupReps = 3
	// stopGrace bounds a program's SIGTERM drain before it is killed.
	stopGrace = 10 * time.Second
)

// run is the state of one benchmark invocation.
type run struct {
	opts    options
	root    string // checkout root (the working directory)
	dir     string // scratch directory of this run
	env     envStamp
	procs   []*proc
	metrics map[string]metric
	detail  map[string]any
	tr      *tracer // spans of the traced run's in-process calls

	attempted, failed int64
	violations        []string // failed checks that are not counted operations
}

// set records a metric under its declared unit.
func (r *run) set(name string, v float64) {
	m, ok := metricByName[name]
	if !ok {
		panic("wymbench: undeclared metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: m.Unit}
}

func (r *run) bin(name string) string { return filepath.Join(r.opts.bin, name) }

func (r *run) path(name string) string { return filepath.Join(r.dir, name) }

// track registers a started process for the environment stamp and for
// cleanup.
func (r *run) track(p *proc) { r.procs = append(r.procs, p) }

// stopAll stops every process still running and waits for each.
func (r *run) stopAll() {
	for _, p := range r.procs {
		p.stop(stopGrace)
	}
}

// violate records a failed check that is not an operation of its own.
func (r *run) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// note prints a progress line; every line but the last is commentary.
func note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// reps is the number of set-ups this run makes.
func (r *run) reps() int {
	if r.opts.trace {
		return 1
	}
	return setupReps
}

// timedSetup runs fn reps times (rep counts from 0; the last rep leaves
// its programs running) and records the median duration as setup_s.
func (r *run) timedSetup(fn func(last bool) error) error {
	var times []float64
	for i := 0; i < r.reps(); i++ {
		start := time.Now()
		if err := fn(i == r.reps()-1); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.recordSetup(times)
	return nil
}

// recordSetup records the median of the set-up durations as setup_s.
func (r *run) recordSetup(times []float64) {
	r.detail["setup_s_each"] = append([]float64(nil), times...)
	r.set("setup_s", median(times))
	note("setup: %v s each, median %.3f s", fmtFloats(times), median(times))
}

// train runs `wym train` on the profile's training set and saves the
// model to path.
func (r *run) train(ctx context.Context, key, path string) error {
	p, err := runProc(ctx, "wym-train", r.bin("wym"), []string{
		"train", "-dataset", key, "-scale", trainScale, "-seed", trainSeed,
		"-explain", "0", "-save", path,
	}, benchProcs(), r.path("train.log"))
	if p != nil {
		r.track(p)
	}
	return err
}

// convert compiles a gob model into the arena serving format.
func (r *run) convert(ctx context.Context, in, out string) error {
	p, err := runProc(ctx, "wym-convert", r.bin("wym"), []string{
		"model", "convert", "-in", in, "-out", out,
	}, benchProcs(), r.path("convert.log"))
	if p != nil {
		r.track(p)
	}
	return err
}

// inputProfile is the named dataset profile re-seeded so its entities
// are disjoint from the training set (`wym train -dataset` uses the
// profile's own seed). The pool is the same for every workload seed, so
// F1 measures the model rather than the draw; the workload seed decides
// the traffic over it.
func inputProfile(key string) datagen.Profile {
	p, ok := datagen.ProfileByKey(key)
	if !ok {
		panic("wymbench: unknown profile " + key)
	}
	p.Seed = p.Seed*1_000_003 + 1
	return p
}

// pairBody is the JSON body of /predict and /explain, and one item of a
// /predict/batch body.
type pairBody struct {
	Left  []string `json:"left"`
	Right []string `json:"right"`
}

func bodyOf(p data.Pair) pairBody {
	return pairBody{Left: p.Left, Right: p.Right}
}

// checkDecisions compares every answered pair with the in-process
// decision on the same model file. pairsOf maps an outcome to the pool
// indices of its decisions. An op fails when it failed on the wire, holds
// the wrong number of decisions, or any decision differs from the
// in-process one (probabilities within tol). It returns the confusion of
// the answered pairs against the pool labels, each pair counted once.
func (r *run) checkDecisions(ctx context.Context, outs []outcome, pool []data.Pair, pairsOf func(outcome) []int, modelPath string, tol float64) (confusion, error) {
	need := map[int]int{}
	var uniq []data.Pair
	for _, o := range outs {
		if !o.ok() {
			continue
		}
		for _, i := range pairsOf(o) {
			if _, ok := need[i]; !ok {
				need[i] = len(uniq)
				uniq = append(uniq, pool[i])
			}
		}
	}
	// Engine.PredictBatch runs Engine.Predict per pair, fanned out.
	sys, err := core.LoadFile(modelPath)
	if err != nil {
		return confusion{}, err
	}
	preds := sys.Engine().PredictBatch(ctx, uniq)
	v := judge(outs, pairsOf, func(i int) pipeline.Prediction { return preds[need[i]] },
		func(i int) bool { return pool[i].Label == data.Match }, tol)
	r.attempted += int64(v.Attempted)
	r.failed += int64(v.Wire + v.Mismatches)
	note("output check: %d ops, %d failed on the wire, %d disagree with the in-process decision (tol %g), %d pairs checked",
		v.Attempted, v.Wire, v.Mismatches, tol, len(uniq))
	r.detail["check"] = map[string]any{"ops": v.Attempted, "wire_failures": v.Wire, "mismatches": v.Mismatches, "pairs_checked": len(uniq), "proba_tol": tol}
	return v.Conf, nil
}

// checked is the verdict of the output check on a run's operations.
type checked struct {
	Attempted  int // ops sent (skipped ops were never attempted)
	Wire       int // ops that failed on the wire
	Mismatches int // ops with a decision unlike the in-process one
	Conf       confusion
}

// judge compares every answered decision with want, the in-process
// prediction for a pool index. An op fails when it failed on the wire,
// holds another number of decisions than it asked for, carries an item
// error, or any decision differs in label or by more than tol in
// probability. Conf scores the ops that passed against isMatch, counting
// each pool pair once so it does not depend on how often a run drew it.
func judge(outs []outcome, pairsOf func(outcome) []int, want func(int) pipeline.Prediction, isMatch func(int) bool, tol float64) checked {
	var v checked
	scored := map[int]bool{}
	for _, o := range outs {
		if o.Skipped {
			continue
		}
		v.Attempted++
		if !o.ok() {
			v.Wire++
			continue
		}
		idx := pairsOf(o)
		bad := len(idx) != len(o.Decisions)
		for k := 0; !bad && k < len(idx); k++ {
			w, got := want(idx[k]), o.Decisions[k]
			bad = got.Err != "" || w.Err != "" || got.Match != (w.Label == data.Match) || math.Abs(got.Proba-w.Proba) > tol
		}
		if bad {
			v.Mismatches++
			continue
		}
		for k, i := range idx {
			if !scored[i] {
				scored[i] = true
				v.Conf.add(o.Decisions[k].Match, isMatch(i))
			}
		}
	}
	return v
}

// arenaTolerance reads the committed float32 arena probability budget.
func (r *run) arenaTolerance() (float64, error) {
	raw, err := os.ReadFile(filepath.Join(r.root, "internal", "core", "testdata", "arena_tolerances.json"))
	if err != nil {
		return 0, err
	}
	var t struct {
		F32 struct {
			ProbaAbs float64 `json:"proba_abs"`
		} `json:"f32"`
	}
	if err := json.Unmarshal(raw, &t); err != nil {
		return 0, fmt.Errorf("arena_tolerances.json: %w", err)
	}
	if t.F32.ProbaAbs <= 0 {
		return 0, fmt.Errorf("arena_tolerances.json: no f32 proba_abs budget")
	}
	return t.F32.ProbaAbs, nil
}

// gobTolerance is the probability budget for a gob model: the server and
// the in-process check run the same float64 code on the same file, and
// JSON round-trips float64 exactly.
const gobTolerance = 1e-12

// successRatio records success_ratio from the run's operation counts.
func (r *run) successRatio() {
	if r.attempted == 0 {
		r.set("success_ratio", 0)
		return
	}
	r.set("success_ratio", float64(r.attempted-r.failed)/float64(r.attempted))
}

func fmtFloats(xs []float64) string {
	out := "["
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += strconv.FormatFloat(x, 'f', 3, 64)
	}
	return out + "]"
}
