package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"wym/internal/blocking"
	"wym/internal/core"
	"wym/internal/data"
	"wym/internal/datagen"
	"wym/internal/matchjob"
	"wym/internal/obs"
	"wym/internal/pipeline"
)

// table-match settings.
const (
	tmProfile   = "S-AG"
	tmRows      = 500 // rows per table
	tmMatchRate = 0.2
	tmChunk     = 100 // left rows per chunk (-chunk)
	// The CLI's blocking defaults, passed explicitly so the in-process
	// check blocks exactly as the job does.
	tmTopK      = 3
	tmMaxDF     = 0.1
	tmIndexMB   = 64
	tmReplayMax = 400
)

// tmBlocking is the stream configuration the `wym match` flags below
// produce.
func tmBlocking() blocking.StreamConfig {
	return blocking.StreamConfig{
		Config:       blocking.Config{MaxDF: tmMaxDF, MinShared: 1},
		MemoryBudget: tmIndexMB << 20,
		TopK:         tmTopK,
	}
}

// tableMatch runs `wym match` jobs back to back on two generated entity
// tables and checks every emitted row against an in-process
// PredictBatch over the same candidates.
func tableMatch(ctx context.Context, r *run) error {
	tp := shuffleLeft(datagen.GenerateTables(inputProfile(tmProfile), tmRows, tmMatchRate), r.opts.seed)
	left, right, truth := r.path("left.csv"), r.path("right.csv"), r.path("truth.csv")
	if err := data.SaveTableFile(left, &data.Table{Name: "left", Schema: tp.Schema, Rows: tp.Left}); err != nil {
		return err
	}
	if err := data.SaveTableFile(right, &data.Table{Name: "right", Schema: tp.Schema, Rows: tp.Right}); err != nil {
		return err
	}
	if err := data.SaveTruthFile(truth, tp.Truth); err != nil {
		return err
	}
	gob := r.path("model.gob")
	if err := r.timedSetup(func(bool) error { return r.train(ctx, tmProfile, gob) }); err != nil {
		return err
	}

	type job struct {
		wall time.Duration
		out  []byte
		err  error
		rss  float64
	}
	var jobs []job
	deadline := time.Now().Add(time.Duration(r.opts.seconds) * time.Second)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		dir := r.path(fmt.Sprintf("job-%d", i))
		out := filepath.Join(dir, "matches.csv")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		start := time.Now()
		p, err := runProc(ctx, "wym-match", r.bin("wym"), []string{
			"match", "-left", left, "-right", right, "-model", gob, "-out", out,
			"-job", filepath.Join(dir, "job"), "-truth", truth, "-all",
			"-chunk", strconv.Itoa(tmChunk), "-topk", strconv.Itoa(tmTopK),
			"-max-df", strconv.FormatFloat(tmMaxDF, 'g', -1, 64), "-index-mem-mb", strconv.Itoa(tmIndexMB),
		}, benchProcs(), filepath.Join(dir, "match.log"))
		j := job{wall: time.Since(start), err: err}
		if p != nil {
			r.track(p)
			j.rss = p.peakRSSMB()
		}
		if err == nil {
			j.out, j.err = os.ReadFile(out)
		}
		jobs = append(jobs, j)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}

	// In-process expectation: block with the same settings, predict each
	// chunk's candidates with PredictBatch, format rows as the job does.
	sys, err := core.LoadFile(gob)
	if err != nil {
		return err
	}
	exp, stats, cands, err := expectRows(ctx, r.tr, sys.Engine(), tp)
	if err != nil {
		return err
	}

	var walls, rates, rsss []float64
	var conf confusion
	for i, j := range jobs {
		r.attempted += int64(len(exp))
		if j.err != nil {
			r.failed += int64(len(exp))
			note("job %d failed: %v", i, j.err)
			continue
		}
		got, err := parseRows(j.out)
		if err != nil {
			r.failed += int64(len(exp))
			note("job %d output: %v", i, err)
			continue
		}
		bad := diffRows(exp, got)
		r.failed += int64(bad)
		walls = append(walls, ms(j.wall))
		rates = append(rates, float64(len(got))/j.wall.Seconds())
		rsss = append(rsss, j.rss)
		if i == 0 {
			conf = pairConfusion(got, tp.Truth)
		}
	}
	note("table match: %d jobs of %dx%d rows, %d candidates each, wall %v ms; %d failed rows of %d",
		len(jobs), tmRows, tmRows, len(exp), fmtFloats(walls), r.failed, r.attempted)
	r.detail["jobs_wall_ms"] = walls
	t := tailOf(append([]float64(nil), walls...), 0.99)
	r.detail["latency_tail"] = t
	p50 := median(walls)
	r.set("latency_p50_ms", p50)
	r.set("loadgen.latency_p99_ms", t.Value)
	r.set("loadgen.max_rate_rps", ratio(1e3, p50))
	r.set("throughput_pairs_per_s", median(rates))
	r.successRatio()
	r.set("f1", conf.f1())
	r.set("peak_rss_mb", median(rsss))

	if !r.opts.trace {
		return nil
	}
	index := layerTotals(r.tr.spans)["blocking.index"].Dur
	r.set("blocking.index_ms", ms(index))
	r.set("blocking.candidates", float64(stats.Emitted))
	r.set("blocking.pruned", float64(stats.Pruned))
	r.set("blocking.peak_index_bytes", float64(stats.PeakIndexBytes))
	r.set("blocking.recall", blockingRecall(cands, tp.Truth))
	if err := r.replayMatchjob(ctx, sys, tp, index); err != nil {
		return err
	}
	r.zero("serve.", "audit.", "cluster.")
	r.set("loadgen.sent", float64(len(jobs)))
	r.set("loadgen.succeeded", float64(len(walls)))
	r.set("loadgen.failed", float64(len(jobs)-len(walls)))
	r.set("loadgen.late_ms_max", 0)
	var sample []data.Pair
	for _, c := range cands[:min(tmReplayMax, len(cands))] {
		sample = append(sample, data.Pair{Left: tp.Left[c.Left], Right: tp.Right[c.Right]})
	}
	return r.replay(ctx, replaySpec{GobPath: gob, ServePath: gob, Pairs: sample, Batch: brBatch})
}

// shuffleLeft permutes the left table's rows with the workload seed and
// remaps the truth. Blocking keeps each left row's candidates whatever
// its position, so every seed does the same matching work in another
// chunk layout.
func shuffleLeft(tp *datagen.TablePair, seed int64) *datagen.TablePair {
	perm := phaseRNG(seed, "left-rows").Perm(len(tp.Left))
	left := make([]data.Entity, len(tp.Left))
	for old, nu := range perm {
		left[nu] = tp.Left[old]
	}
	truth := make([][2]int, len(tp.Truth))
	for i, t := range tp.Truth {
		truth[i] = [2]int{perm[t[0]], t[1]}
	}
	sort.Slice(truth, func(i, j int) bool { return truth[i][0] < truth[j][0] })
	out := *tp
	out.Left, out.Truth = left, truth
	return &out
}

// expectRows blocks the tables chunk by chunk and predicts each chunk's
// candidates, returning the rows `wym match -all` must emit keyed by
// "left,right", the blocking statistics, and the candidates in order.
func expectRows(ctx context.Context, tr *tracer, eng *pipeline.Engine, tp *datagen.TablePair) (map[string]string, blocking.StreamStats, []blocking.Candidate, error) {
	idx := tr.begin("blocking.index", 0, 1)
	s, err := blocking.NewStreamer(tp.Left, tp.Right, tmBlocking())
	if err != nil {
		return nil, blocking.StreamStats{}, nil, err
	}
	var chunks [][]blocking.Candidate
	for start := 0; start < len(tp.Left); start += tmChunk {
		cs, err := s.Chunk(start, min(start+tmChunk, len(tp.Left)))
		if err != nil {
			return nil, blocking.StreamStats{}, nil, err
		}
		var cands []blocking.Candidate
		for {
			c, ok := cs.Next()
			if !ok {
				break
			}
			cands = append(cands, c)
		}
		chunks = append(chunks, cands)
	}
	tr.end(idx)

	rows := map[string]string{}
	var all []blocking.Candidate
	for _, cands := range chunks {
		pairs := make([]data.Pair, len(cands))
		for i, c := range cands {
			pairs[i] = data.Pair{Left: tp.Left[c.Left], Right: tp.Right[c.Right]}
		}
		for i, p := range eng.PredictBatch(ctx, pairs) {
			if p.Err != "" {
				return nil, blocking.StreamStats{}, nil, fmt.Errorf("in-process predict (%d,%d): %s", cands[i].Left, cands[i].Right, p.Err)
			}
			rows[rowKey(cands[i].Left, cands[i].Right)] = strconv.Itoa(p.Label) + "," + strconv.FormatFloat(p.Proba, 'f', 6, 64)
		}
		all = append(all, cands...)
	}
	return rows, s.Stats(), all, nil
}

func rowKey(l, r int) string { return strconv.Itoa(l) + "," + strconv.Itoa(r) }

// parseRows reads a `wym match` output CSV (left,right,label,proba) into
// rows keyed like expectRows.
func parseRows(raw []byte) (map[string]string, error) {
	rows := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for n := 0; sc.Scan(); n++ {
		if n == 0 {
			if sc.Text() != "left,right,label,proba" {
				return nil, fmt.Errorf("unexpected header %q", sc.Text())
			}
			continue
		}
		f := strings.Split(sc.Text(), ",")
		if len(f) != 4 {
			return nil, fmt.Errorf("line %d: %d fields", n+1, len(f))
		}
		key := f[0] + "," + f[1]
		if _, dup := rows[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate pair %s", n+1, key)
		}
		rows[key] = f[2] + "," + f[3]
	}
	return rows, sc.Err()
}

// diffRows counts rows that are missing, extra, or hold another label
// or probability than expected.
func diffRows(want, got map[string]string) int {
	bad := 0
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			bad++
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad++
		}
	}
	return bad
}

// pairConfusion scores emitted match rows against the truth pairs.
func pairConfusion(rows map[string]string, truth [][2]int) confusion {
	truthSet := map[string]bool{}
	for _, t := range truth {
		truthSet[rowKey(t[0], t[1])] = true
	}
	var c confusion
	for k, v := range rows {
		match := strings.HasPrefix(v, strconv.Itoa(data.Match)+",")
		c.add(match, truthSet[k])
	}
	for k := range truthSet {
		if _, ok := rows[k]; !ok {
			c.FN++ // never a candidate: a miss of blocking
		}
	}
	return c
}

func blockingRecall(cands []blocking.Candidate, truth [][2]int) float64 {
	set := map[[2]int]bool{}
	for _, c := range cands {
		set[[2]int{c.Left, c.Right}] = true
	}
	hit := 0
	for _, t := range truth {
		if set[t] {
			hit++
		}
	}
	return ratio(float64(hit), float64(len(truth)))
}

// timedPredictor wraps the engine so the matchjob run records a span
// around every PredictBatch call.
type timedPredictor struct {
	eng    *pipeline.Engine
	tr     *tracer
	parent int
}

func (t timedPredictor) PredictBatch(ctx context.Context, pairs []data.Pair) []pipeline.Prediction {
	id := t.tr.begin("matchjob.predict_batch", t.parent, 2)
	defer t.tr.end(id)
	return t.eng.PredictBatch(ctx, pairs)
}

// replayMatchjob runs the job engine in-process with its metrics on and
// reports the per-chunk time and the share of the run spent outside
// blocking and prediction (segment and manifest I/O, merging).
func (r *run) replayMatchjob(ctx context.Context, sys *core.System, tp *datagen.TablePair, blockingTime time.Duration) error {
	reg := obs.NewRegistry()
	m := matchjob.NewMetrics(reg)
	tr := r.tr
	first := len(tr.spans)
	root := tr.begin("matchjob.run", 0, 2)
	runner, err := matchjob.New(timedPredictor{eng: sys.Engine(), tr: tr, parent: root}, tp.Left, tp.Right, matchjob.Config{
		ChunkSize: tmChunk, Blocking: tmBlocking(), All: true,
		Dir: r.path("replay-job"), Out: r.path("replay-matches.csv"), Metrics: m,
	})
	if err != nil {
		return err
	}
	if _, err := runner.Run(ctx); err != nil {
		return err
	}
	total := tr.end(root)
	var predict time.Duration
	for _, s := range tr.spans[first:] {
		if s.Name == "matchjob.predict_batch" {
			predict += s.dur()
		}
	}
	snap := m.ChunkSeconds.Snapshot()
	r.set("matchjob.chunk_ms", 1e3*ratio(snap.Sum, float64(snap.Count)))
	r.set("matchjob.io_share", ratio(float64(total-blockingTime-predict), float64(total)))
	return nil
}
