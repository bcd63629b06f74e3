package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"wym/internal/audit"
	"wym/internal/core"
	"wym/internal/data"
	"wym/internal/tokenize"
	"wym/internal/units"
)

// layerSumTolerance bounds how far the generate + relevance + matcher
// spans of a record may sum from Engine.Predict timed on the same pairs
// in the same run, as a share of the Predict time.
const layerSumTolerance = 0.20

// serverAuditFlush is wym-server's default -audit-flush, used for the
// in-process audit appends so they batch fsyncs like the server does.
const serverAuditFlush = 200 * time.Millisecond

// modelLoads is how many times each model file is loaded in-process;
// the load time is the median.
const modelLoads = 5

// replaySpec says what the traced replay runs.
type replaySpec struct {
	GobPath   string      // trained model (training spans, gob load time)
	ServePath string      // the model file the workload serves
	Pairs     []data.Pair // records replayed one at a time
	Batch     int         // pairs per PredictBatch call
	Audit     bool        // also append each explanation to an audit log
}

// replay times calls into each layer's public functions on the
// workload's inputs, records a span around each, and sets the per-layer
// metrics of the in-process layers.
func (r *run) replay(ctx context.Context, spec replaySpec) error {
	gobSys, gobMS, err := loadTimed(spec.GobPath)
	if err != nil {
		return err
	}
	arenaPath := strings.TrimSuffix(spec.GobPath, ".gob") + ".replay.wyma"
	if err := gobSys.SaveArenaFile(arenaPath, core.ArenaOptions{}); err != nil {
		return err
	}
	_, arenaMS, err := loadTimed(arenaPath)
	if err != nil {
		return err
	}
	r.set("model.load_ms_gob", gobMS)
	r.set("model.load_ms_arena", arenaMS)
	r.setTraining(gobSys)

	sys := gobSys
	if spec.ServePath != spec.GobPath {
		if sys, err = core.LoadFile(spec.ServePath); err != nil {
			return err
		}
	}
	eng := sys.Engine()
	gen, scorer, matcher := eng.Generator(), eng.Scorer(), eng.Matcher()
	tokOpts := core.DefaultConfig().Tokenize

	var alog *audit.Log
	if spec.Audit {
		if alog, err = audit.Open(r.path("replay-audit"), audit.Options{FlushEvery: serverAuditFlush}); err != nil {
			return err
		}
		defer alog.Close()
	}

	tr := r.tr
	first := len(tr.spans)
	var (
		predictTotal, tracedTotal time.Duration
		tokens, unitCount, paired int
		disagree                  int
	)
	for i, p := range spec.Pairs {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		id := i + 1
		untraced := func() (int, float64) {
			start := time.Now()
			label, proba := eng.Predict(p)
			predictTotal += time.Since(start)
			return label, proba
		}
		var wantLabel int
		if i%2 == 0 { // alternate the order so neither side always runs cache-warm
			wantLabel, _ = untraced()
		}
		root := tr.begin("record", 0, id)
		tk := tr.begin("tokenize", root, id)
		lt := tokenize.Entity(p.Left, tokOpts)
		rt := tokenize.Entity(p.Right, tokOpts)
		tr.end(tk)
		start := time.Now()
		g := tr.begin("generate", root, id)
		rec := gen.Generate(p)
		tr.end(g)
		s := tr.begin("relevance", root, id)
		scores := scorer.Score(rec)
		tr.end(s)
		m := tr.begin("matcher.match", root, id)
		label, _ := matcher.MatchRecord(rec, scores)
		tr.end(m)
		tracedTotal += time.Since(start)
		e := tr.begin("matcher.explain", root, id)
		ex := matcher.ExplainRecord(rec, scores)
		tr.end(e)
		if alog != nil {
			a := tr.begin("audit.append", root, id)
			err := alog.Append(audit.Record{
				RequestID: fmt.Sprintf("replay-%d", id), TimeNanos: time.Now().UnixNano(), Route: "/predict",
				Model: spec.ServePath, Left: p.Left, Right: p.Right,
				Prediction: ex.Prediction, Proba: ex.Proba, Threshold: sys.DecisionThreshold(),
				Units: audit.CompactUnits(ex),
			})
			tr.end(a)
			if err != nil {
				return fmt.Errorf("audit append: %w", err)
			}
		}
		tr.end(root)
		if i%2 == 1 {
			wantLabel, _ = untraced()
		}
		if label != wantLabel || ex.Prediction != wantLabel {
			disagree++
		}
		tokens += len(lt) + len(rt)
		unitCount += len(rec.Units)
		for _, u := range rec.Units {
			if u.Kind == units.Paired {
				paired++
			}
		}
	}
	if disagree > 0 {
		r.violate("traced replay: %d records where the layer calls disagree with Engine.Predict", disagree)
	}

	// Batched predict over the same records, against the sum of their
	// single-record layer spans.
	for b, start := 0, 0; start < len(spec.Pairs); b, start = b+1, start+spec.Batch {
		end := min(start+spec.Batch, len(spec.Pairs))
		id := tr.begin("pipeline.batch", 0, -(b + 1))
		preds := eng.PredictBatch(ctx, spec.Pairs[start:end])
		tr.end(id)
		for _, pr := range preds {
			if pr.Err != "" {
				r.violate("traced replay: batch item failed: %s", pr.Err)
			}
		}
	}

	n := float64(len(spec.Pairs))
	lt := layerTotals(tr.spans[first:])
	r.set("tokenize.us_per_record", lt["tokenize"].perCall())
	r.set("tokenize.tokens_per_record", float64(tokens)/n)
	r.set("generate.us_per_record", lt["generate"].perCall())
	r.set("units.per_record", float64(unitCount)/n)
	r.set("units.paired_share", ratio(float64(paired), float64(unitCount)))
	r.set("relevance.us_per_record", lt["relevance"].perCall())
	r.set("relevance.ns_per_unit", ratio(float64(lt["relevance"].Dur), float64(unitCount)))
	r.set("matcher.match_us_per_record", lt["matcher.match"].perCall())
	r.set("matcher.explain_us_per_record", lt["matcher.explain"].perCall())
	r.set("predict.us_per_record", float64(predictTotal)/1e3/n)
	r.set("pipeline.batch_us_per_pair", float64(lt["pipeline.batch"].Dur)/1e3/n)
	single := lt["generate"].Dur + lt["relevance"].Dur + lt["matcher.match"].Dur
	r.set("pipeline.batch_efficiency", ratio(float64(single), float64(lt["pipeline.batch"].Dur)))
	r.set("audit.append_us", lt["audit.append"].perCall())
	r.set("trace.overhead_us_per_record", float64(tracedTotal-predictTotal)/1e3/n)
	sumRatio := ratio(float64(single), float64(predictTotal))
	r.set("trace.layer_sum_ratio", sumRatio)
	note("replay: %d records, predict %.1f us/record, layers sum to %.3f of it (tolerance ±%.0f%%)",
		len(spec.Pairs), float64(predictTotal)/1e3/n, sumRatio, 100*layerSumTolerance)
	if sumRatio < 1-layerSumTolerance || sumRatio > 1+layerSumTolerance {
		r.violate("layer-sum check: generate+relevance+matcher spans are %.3f of Engine.Predict, outside ±%.0f%%", sumRatio, 100*layerSumTolerance)
	}
	selfByName := map[string]float64{}
	for name, t := range lt {
		selfByName[name] = float64(t.Self) / 1e3 / float64(t.Count)
	}
	r.detail["self_us_per_span"] = selfByName
	return nil
}

// loadTimed loads a model file modelLoads times and returns the last
// system and the median load time in milliseconds.
func loadTimed(path string) (*core.System, float64, error) {
	var sys *core.System
	var times []float64
	for i := 0; i < modelLoads; i++ {
		start := time.Now()
		s, err := core.LoadFile(path)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, ms(time.Since(start)))
		sys = s
	}
	return sys, median(times), nil
}

// setTraining reports the trained model's stage spans, summed by stage
// (the part of the span name before "/").
func (r *run) setTraining(sys *core.System) {
	by := map[string]float64{}
	for _, s := range sys.StageSpans() {
		stage, _, _ := strings.Cut(s.Name, "/")
		by[stage] += s.Dur.Seconds()
	}
	r.detail["training_spans"] = sys.StageSpans()
	for _, stage := range []string{"embeddings", "units", "scorer", "features", "model"} {
		r.set("training."+stage+"_s", by[stage])
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// zero sets the named per-layer metrics to 0: the layers this workload
// does not exercise.
func (r *run) zero(prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(m.Name, p) {
				r.set(m.Name, 0)
			}
		}
	}
}
