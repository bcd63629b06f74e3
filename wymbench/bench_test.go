package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wym/internal/pipeline"
)

func TestTailOfNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: tailOf must sort
		}
		return xs
	}
	cases := []struct {
		n          int
		want       float64
		wantBeyond int
	}{
		{n: 1000, want: 990, wantBeyond: 10}, // p99 proper: 10 samples beyond
		{n: 2000, want: 1980, wantBeyond: 20},
		{n: 500, want: 490, wantBeyond: 10}, // falls back to p98
		{n: 30, want: 20, wantBeyond: 10},
		{n: 20, want: 10, wantBeyond: 10}, // the lower median still has 10 beyond
		{n: 19, want: 19, wantBeyond: 0},  // even the median lacks 10 beyond: max
		{n: 1, want: 1, wantBeyond: 0},
	}
	for _, c := range cases {
		got := tailOf(seq(c.n), 0.99)
		if got.Value != c.want || got.Beyond != c.wantBeyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want value %v with %d beyond", c.n, got, c.want, c.wantBeyond)
		}
	}
	if got := tailOf(nil, 0.99); got.N != 0 || got.Value != 0 {
		t.Errorf("empty: %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}

func TestF1(t *testing.T) {
	var c confusion
	for _, d := range []struct{ pred, actual bool }{
		{true, true}, {true, true}, {true, false}, {false, true}, {false, false},
	} {
		c.add(d.pred, d.actual)
	}
	if c.TP != 2 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("confusion %+v", c)
	}
	if got := c.f1(); got != 4.0/6 {
		t.Errorf("f1 %v, want %v", got, 4.0/6)
	}
	if got := f1(0, 0, 0); got != 0 {
		t.Errorf("empty f1 %v", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "record", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 50 * ms},   // overlaps a: union 10..50
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},  // clipped to 90..100
		{ID: 5, Parent: 2, Name: "a.1", Start: 15 * ms, End: 20 * ms}, // grandchild: only a's self time
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 25 * ms, 3: 20 * ms, 4: 30 * ms, 5: 5 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %v, want %v", id, self[id], w)
		}
	}
	lt := layerTotals(spans)
	if lt["record"].Self != 50*ms || lt["a"].Dur != 30*ms || lt["a"].perCall() != 30000 {
		t.Errorf("layer totals %+v", lt)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("record", 0, 7)
	child := tr.begin("generate", root, 7)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].Trace != 7 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].Start < tr.spans[0].Start {
		t.Errorf("child not inside parent: %+v", tr.spans)
	}
}

// openLoopOutcomes builds outcomes sent late by late(i) ms.
func openLoopOutcomes(n int, late func(i int) float64) []outcome {
	outs := make([]outcome, n)
	for i := range outs {
		due := time.Duration(i) * time.Millisecond
		sent := due + time.Duration(late(i)*float64(time.Millisecond))
		outs[i] = outcome{Op: op{Due: due}, Sent: sent, Done: sent + time.Millisecond,
			Decisions: []decision{{Match: true}}}
	}
	return outs
}

func TestBacklogDetection(t *testing.T) {
	steady := openLoopOutcomes(400, func(i int) float64 { return float64(i % 3) }) // jitter, no trend
	if backlogGrows(steady, 2*time.Millisecond) {
		t.Error("steady lateness reported as a growing backlog")
	}
	growing := openLoopOutcomes(400, func(i int) float64 { return float64(i) / 20 }) // 0 -> 20 ms
	if !backlogGrows(growing, 2*time.Millisecond) {
		t.Error("lateness rising over the rung not reported")
	}
	skipped := openLoopOutcomes(40, func(int) float64 { return 0 })
	skipped[39].Skipped = true
	if !backlogGrows(skipped, time.Second) {
		t.Error("a skipped op must count as a growing backlog")
	}
}

func TestSummarizeTimesFromDueTime(t *testing.T) {
	// Every op is sent 4 ms late and answered in 1 ms: latency is 5 ms
	// from the due time, not 1 ms from the send.
	outs := openLoopOutcomes(100, func(int) float64 { return 4 })
	st := summarize(100, outs, 20*time.Millisecond)
	if st.P50MS != 5 || st.LateMaxMS != 4 || !st.Pass || st.Sent != 100 || st.Succeeded != 100 {
		t.Errorf("stats %+v", st)
	}
	if st := summarize(100, outs, 3*time.Millisecond); st.Pass {
		t.Errorf("tail 5 ms passed a 3 ms limit: %+v", st)
	}
	outs[3].Err = "503 Service Unavailable"
	if st := summarize(100, outs, 20*time.Millisecond); st.Pass || st.Failed != 1 {
		t.Errorf("a failed op must fail the rung: %+v", st)
	}
}

func TestVerdictUsesWindowMedians(t *testing.T) {
	ok := phaseStats{Sent: 10, Succeeded: 10, P50MS: 1, TailMS: 4, Wall: 1}
	stalled := phaseStats{Sent: 10, Succeeded: 10, P50MS: 9, TailMS: 90, Wall: 1, Backlog: true}
	v := verdict(100, []phaseStats{ok, stalled, ok}, 5*time.Millisecond)
	if !v.Pass || v.TailMS != 4 || v.P50MS != 1 || v.Throughput != 10 {
		t.Errorf("one stalled window of three should not fail the rung: %+v", v)
	}
	if v := verdict(100, []phaseStats{ok, stalled, stalled}, 5*time.Millisecond); v.Pass {
		t.Errorf("two stalled windows of three passed: %+v", v)
	}
	failed := ok
	failed.Failed = 1
	if v := verdict(100, []phaseStats{ok, failed, ok}, 5*time.Millisecond); v.Pass {
		t.Error("a failed op in any window must fail the rung")
	}
}

func TestWindowRatesSpreadOpsOverWindows(t *testing.T) {
	s := time.Second
	outs := []outcome{
		{Sent: 0, Done: s, Decisions: make([]decision, 10)},            // all in window 0
		{Sent: s / 2, Done: 3 * s / 2, Decisions: make([]decision, 4)}, // half in each
		{Sent: s, Done: 2 * s, Decisions: make([]decision, 6), Err: "boom"},
	}
	got := windowRates(outs, s, func(o outcome) float64 { return float64(len(o.Decisions)) })
	if len(got) != 2 || got[0] != 12 || got[1] != 2 {
		t.Errorf("window rates %v, want [12 2]", got)
	}
}

func TestPoissonScheduleIsSeededAndCyclesThePool(t *testing.T) {
	mk := func() []op {
		pairs := newCycle(rand.New(rand.NewSource(1)), 50)
		return poissonSchedule(rand.New(rand.NewSource(2)), 1000, 2*time.Second, pairs, 0.2)
	}
	a, b := mk(), mk()
	if len(a) != len(b) || len(a) < 1800 || len(a) > 2200 {
		t.Fatalf("schedule lengths %d %d", len(a), len(b))
	}
	seen := map[int]int{}
	explains := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between equal seeds", i)
		}
		if i > 0 && a[i].Due < a[i-1].Due {
			t.Fatalf("schedule not in due order at %d", i)
		}
		if i < 50 {
			seen[a[i].Item]++
		}
		if a[i].Kind == kindExplain {
			explains++
		}
	}
	if len(seen) != 50 {
		t.Errorf("first 50 ops used %d distinct pairs, want all 50", len(seen))
	}
	if share := float64(explains) / float64(len(a)); share < 0.15 || share > 0.25 {
		t.Errorf("explain share %.3f", share)
	}
}

const promText = `# HELP wym_http_request_seconds Request latency.
# TYPE wym_http_request_seconds histogram
wym_http_request_seconds_bucket{route="/predict",le="0.001"} 3
wym_http_request_seconds_sum{route="/predict"} 0.5
wym_http_request_seconds_count{route="/predict"} 100
wym_http_request_seconds_sum{route="/explain"} 0.25
wym_http_request_seconds_count{route="/explain"} 10
wym_router_forwards_total{replica="http://a",outcome="ok"} 7
wym_router_forwards_total{replica="http://a",outcome="error"} 2
wym_router_forwards_total{replica="http://b",outcome="shed"} 1
wym_server_shed_total 4
wym_odd{label="quote \" and \\ backslash"} +Inf
`

func TestPromScrapeDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(promText))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(strings.NewReplacer(
		`_sum{route="/predict"} 0.5`, `_sum{route="/predict"} 0.9`,
		`_count{route="/predict"} 100`, `_count{route="/predict"} 300`,
		`outcome="error"} 2`, `outcome="error"} 5`,
		"wym_server_shed_total 4", "wym_server_shed_total 6",
	).Replace(promText)))
	if err != nil {
		t.Fatal(err)
	}
	mean, n := meanDeltaMS(before, after, "wym_http_request_seconds", map[string]string{"route": "/predict"})
	if n != 200 || mean < 1.999 || mean > 2.001 {
		t.Errorf("mean delta %v ms over %v, want 2 ms over 200", mean, n)
	}
	if d := promDelta(before, after, "wym_server_shed_total", nil); d != 2 {
		t.Errorf("shed delta %v", d)
	}
	if got := after.sumExcept("wym_router_forwards_total", "outcome", "ok"); got != 6 {
		t.Errorf("non-ok forwards %v, want 6", got)
	}
	if got := mergedMeanMS(before, after, "wym_http_request_seconds", "/predict", "/explain"); got < 1.999 || got > 2.001 {
		t.Errorf("merged mean %v ms", got)
	}
	var odd sample
	for _, s := range before {
		if s.Name == "wym_odd" {
			odd = s
		}
	}
	if odd.Labels["label"] != `quote " and \ backslash` {
		t.Errorf("escaped label %q", odd.Labels["label"])
	}
	if _, err := parseProm(strings.NewReader("wym_broken{route=\"/x\" 1\n")); err == nil {
		t.Error("unterminated label set parsed")
	}
}

func TestWrongDecisionCountsAsFailure(t *testing.T) {
	want := map[int]pipeline.Prediction{
		0: {Label: 1, Proba: 0.9},
		1: {Label: 0, Proba: 0.2},
	}
	isMatch := func(i int) bool { return i == 0 }
	single := func(o outcome) []int { return []int{o.Op.Item} }
	wantOf := func(i int) pipeline.Prediction { return want[i] }
	outs := []outcome{
		{Op: op{Item: 0}, Decisions: []decision{{Match: true, Proba: 0.9}}},         // right
		{Op: op{Item: 1}, Decisions: []decision{{Match: true, Proba: 0.2}}},         // wrong label
		{Op: op{Item: 1}, Decisions: []decision{{Match: false, Proba: 0.25}}},       // proba off by 0.05
		{Op: op{Item: 1}, Decisions: []decision{{Match: false, Proba: 0.2 + 1e-7}}}, // within tolerance
		{Op: op{Item: 0}, Err: "500 Internal Server Error"},
		{Op: op{Item: 0}, Skipped: true},
	}
	v := judge(outs, single, wantOf, isMatch, 1e-5)
	if v.Attempted != 5 || v.Wire != 1 || v.Mismatches != 2 {
		t.Errorf("verdict %+v, want 5 attempted, 1 wire failure, 2 mismatches", v)
	}
	if v.Conf.TP != 1 || v.Conf.TN != 1 || v.Conf.FP != 0 {
		t.Errorf("confusion of passing ops %+v", v.Conf)
	}

	batch := func(outcome) []int { return []int{0, 1} }
	short := []outcome{{Decisions: []decision{{Match: true, Proba: 0.9}}}} // one result for two pairs
	if v := judge(short, batch, wantOf, isMatch, 1e-5); v.Mismatches != 1 {
		t.Errorf("a batch missing a result must fail: %+v", v)
	}
	itemErr := []outcome{{Decisions: []decision{{Match: true, Proba: 0.9}, {Err: "panic"}}}}
	if v := judge(itemErr, batch, wantOf, isMatch, 1e-5); v.Mismatches != 1 {
		t.Errorf("a per-item error must fail: %+v", v)
	}
}

func TestTableRowsCheck(t *testing.T) {
	want := map[string]string{"0,1": "1,0.900000", "0,2": "0,0.100000", "3,4": "0,0.000000"}
	got, err := parseRows([]byte("left,right,label,proba\n0,1,1,0.900000\n0,2,1,0.100000\n5,6,0,0.500000\n"))
	if err != nil {
		t.Fatal(err)
	}
	// 0,2 has the wrong label, 3,4 is missing, 5,6 is extra.
	if bad := diffRows(want, got); bad != 3 {
		t.Errorf("diffRows = %d, want 3", bad)
	}
	if bad := diffRows(want, want); bad != 0 {
		t.Errorf("identical rows differ: %d", bad)
	}
	if _, err := parseRows([]byte("l,r\n")); err == nil {
		t.Error("bad header accepted")
	}
	c := pairConfusion(got, [][2]int{{0, 1}, {7, 7}})
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Errorf("pair confusion %+v", c)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// benchmark reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	same := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(file), len(code))
			return
		}
		for i := range file {
			if file[i].Name != code[i].Name || file[i].Unit != code[i].Unit || file[i].Better != code[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestOpenLoopRecordsLatenessWhenConnectionsAreBusy(t *testing.T) {
	// 40 ops all due at once on 2 connections, each taking 2 ms: the
	// last ones go out ~38 ms late and their latency includes the wait.
	sched := make([]op, 40)
	for i := range sched {
		sched[i] = op{Item: i}
	}
	outs := runOpenLoop(t.Context(), sched, 2, func(_ context.Context, _ int, o op) outcome {
		time.Sleep(2 * time.Millisecond)
		return outcome{Decisions: []decision{{Match: o.Item%2 == 0}}}
	})
	if len(outs) != len(sched) {
		t.Fatalf("%d outcomes for %d ops", len(outs), len(sched))
	}
	st := summarize(0, outs, time.Second)
	if st.Succeeded != 40 || st.LateMaxMS < 30 {
		t.Errorf("stats %+v: lateness not recorded", st)
	}
	for i, o := range outs {
		if o.Op.Item != i || o.latency() != o.late()+(o.Done-o.Sent) {
			t.Fatalf("outcome %d: %+v: latency must include the wait to send", i, o)
		}
	}
}

func TestClosedLoopStopsAfterDuration(t *testing.T) {
	var n atomic.Int64
	outs := runClosedLoop(t.Context(), 2, 50*time.Millisecond, func() int { return int(n.Add(1)) }, func(context.Context, int, op) outcome {
		time.Sleep(5 * time.Millisecond)
		return outcome{}
	})
	if len(outs) < 10 || len(outs) > 30 {
		t.Errorf("%d ops in 50 ms on 2 clients of 5 ms each", len(outs))
	}
	seen := map[int]bool{}
	for _, o := range outs {
		if seen[o.Op.Item] || o.Op.Due != o.Sent {
			t.Fatalf("op %+v repeated or not timed from its send", o)
		}
		seen[o.Op.Item] = true
	}
}
