package main

// metricDef declares a reported metric. For per-layer metrics, Moves
// names the end-to-end metrics a change to the layer should move,
// MostlyIn the workloads where the layer does most of its work, and
// FlatIn the workloads where the metric should not move (or is not
// exercised and reads 0).
type metricDef struct {
	Name     string   `json:"name"`
	Unit     string   `json:"unit"`
	Better   string   `json:"better"`
	Moves    []string `json:"moves,omitempty"`
	MostlyIn []string `json:"mostly_in,omitempty"`
	FlatIn   []string `json:"flat_in,omitempty"`
}

const (
	so = "serve-online"
	br = "batch-routed"
	tm = "table-match"
)

// endToEnd are the metrics of an untraced run, reported by every
// workload (METRICS.md defines each per workload). The p99 latency and
// the highest rate within the latency limit are reported by the traced
// run as loadgen.latency_p99_ms and loadgen.max_rate_rps: on a shared
// two-CPU host their run-to-run spread exceeds any usable bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "throughput_pairs_per_s", Unit: "pairs/s", Better: "higher"},
	{Name: "success_ratio", Unit: "fraction", Better: "higher"},
	{Name: "f1", Unit: "fraction", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer are the metrics of a traced run, with the end-to-end metric
// and workload each should move. A layer a workload does not exercise
// reads 0 there.
var perLayer = []metricDef{
	{Name: "tokenize.us_per_record", Unit: "us", Better: "lower", Moves: []string{"latency_p50_ms"}, MostlyIn: []string{so}, FlatIn: []string{tm}},
	{Name: "tokenize.tokens_per_record", Unit: "count", Better: "lower", Moves: []string{"latency_p50_ms"}, MostlyIn: []string{so}, FlatIn: []string{tm}},
	{Name: "generate.us_per_record", Unit: "us", Better: "lower", Moves: []string{"latency_p50_ms", "throughput_pairs_per_s"}, MostlyIn: []string{so, br}},
	{Name: "units.per_record", Unit: "count", Better: "lower", Moves: []string{"throughput_pairs_per_s"}, MostlyIn: []string{br}},
	{Name: "units.paired_share", Unit: "fraction", Better: "higher", Moves: []string{"throughput_pairs_per_s"}, MostlyIn: []string{br}},
	{Name: "relevance.us_per_record", Unit: "us", Better: "lower", Moves: []string{"throughput_pairs_per_s"}, MostlyIn: []string{br, tm}, FlatIn: []string{so}},
	{Name: "relevance.ns_per_unit", Unit: "ns", Better: "lower", Moves: []string{"throughput_pairs_per_s"}, MostlyIn: []string{br, tm}, FlatIn: []string{so}},
	{Name: "matcher.match_us_per_record", Unit: "us", Better: "lower", Moves: []string{"latency_p50_ms", "loadgen.latency_p99_ms"}, MostlyIn: []string{so}, FlatIn: []string{br}},
	{Name: "matcher.explain_us_per_record", Unit: "us", Better: "lower", Moves: []string{"latency_p50_ms", "loadgen.latency_p99_ms"}, MostlyIn: []string{so}, FlatIn: []string{br}},
	{Name: "predict.us_per_record", Unit: "us", Better: "lower", Moves: []string{"latency_p50_ms", "throughput_pairs_per_s"}, MostlyIn: []string{so, br, tm}},
	{Name: "pipeline.batch_us_per_pair", Unit: "us", Better: "lower", Moves: []string{"throughput_pairs_per_s"}, MostlyIn: []string{br, tm}, FlatIn: []string{so}},
	{Name: "pipeline.batch_efficiency", Unit: "ratio", Better: "higher", Moves: []string{"throughput_pairs_per_s"}, MostlyIn: []string{br, tm}, FlatIn: []string{so}},
	{Name: "serve.handler_ms", Unit: "ms", Better: "lower", Moves: []string{"latency_p50_ms", "loadgen.max_rate_rps", "success_ratio"}, MostlyIn: []string{so}, FlatIn: []string{tm}},
	{Name: "serve.outside_handler_ms", Unit: "ms", Better: "lower", Moves: []string{"latency_p50_ms", "loadgen.max_rate_rps"}, MostlyIn: []string{so}, FlatIn: []string{tm}},
	{Name: "serve.shed_total", Unit: "count", Better: "lower", Moves: []string{"success_ratio", "loadgen.max_rate_rps"}, MostlyIn: []string{so}, FlatIn: []string{tm}},
	{Name: "audit.append_us", Unit: "us", Better: "lower", Moves: []string{"loadgen.latency_p99_ms", "loadgen.max_rate_rps"}, MostlyIn: []string{so}, FlatIn: []string{br, tm}},
	{Name: "audit.records_total", Unit: "count", Better: "higher", Moves: []string{"loadgen.latency_p99_ms", "loadgen.max_rate_rps"}, MostlyIn: []string{so}, FlatIn: []string{br, tm}},
	{Name: "audit.dropped_total", Unit: "count", Better: "lower", Moves: []string{"success_ratio"}, MostlyIn: []string{so}, FlatIn: []string{br, tm}},
	{Name: "audit.bytes_per_record", Unit: "bytes", Better: "lower", Moves: []string{"loadgen.latency_p99_ms", "loadgen.max_rate_rps"}, MostlyIn: []string{so}, FlatIn: []string{br, tm}},
	{Name: "cluster.overhead_ms", Unit: "ms", Better: "lower", Moves: []string{"latency_p50_ms", "loadgen.latency_p99_ms"}, MostlyIn: []string{br}, FlatIn: []string{so, tm}},
	{Name: "cluster.retries_total", Unit: "count", Better: "lower", Moves: []string{"loadgen.latency_p99_ms"}, MostlyIn: []string{br}, FlatIn: []string{so, tm}},
	{Name: "cluster.forward_failures_total", Unit: "count", Better: "lower", Moves: []string{"success_ratio", "loadgen.latency_p99_ms"}, MostlyIn: []string{br}, FlatIn: []string{so, tm}},
	{Name: "blocking.index_ms", Unit: "ms", Better: "lower", Moves: []string{"throughput_pairs_per_s"}, MostlyIn: []string{tm}, FlatIn: []string{so, br}},
	{Name: "blocking.candidates", Unit: "count", Better: "lower", Moves: []string{"throughput_pairs_per_s", "f1"}, MostlyIn: []string{tm}, FlatIn: []string{so, br}},
	{Name: "blocking.pruned", Unit: "count", Better: "lower", Moves: []string{"f1"}, MostlyIn: []string{tm}, FlatIn: []string{so, br}},
	{Name: "blocking.peak_index_bytes", Unit: "bytes", Better: "lower", Moves: []string{"peak_rss_mb"}, MostlyIn: []string{tm}, FlatIn: []string{so, br}},
	{Name: "blocking.recall", Unit: "fraction", Better: "higher", Moves: []string{"f1"}, MostlyIn: []string{tm}, FlatIn: []string{so, br}},
	{Name: "matchjob.chunk_ms", Unit: "ms", Better: "lower", Moves: []string{"throughput_pairs_per_s"}, MostlyIn: []string{tm}, FlatIn: []string{so, br}},
	{Name: "matchjob.io_share", Unit: "fraction", Better: "lower", Moves: []string{"throughput_pairs_per_s"}, MostlyIn: []string{tm}, FlatIn: []string{so, br}},
	{Name: "model.load_ms_gob", Unit: "ms", Better: "lower", Moves: []string{"setup_s", "peak_rss_mb"}, MostlyIn: []string{so, br, tm}},
	{Name: "model.load_ms_arena", Unit: "ms", Better: "lower", Moves: []string{"setup_s", "peak_rss_mb"}, MostlyIn: []string{so, br, tm}},
	{Name: "training.embeddings_s", Unit: "s", Better: "lower", Moves: []string{"setup_s"}, MostlyIn: []string{so, br, tm}},
	{Name: "training.units_s", Unit: "s", Better: "lower", Moves: []string{"setup_s"}, MostlyIn: []string{so, br, tm}},
	{Name: "training.scorer_s", Unit: "s", Better: "lower", Moves: []string{"setup_s"}, MostlyIn: []string{so, br, tm}},
	{Name: "training.features_s", Unit: "s", Better: "lower", Moves: []string{"setup_s"}, MostlyIn: []string{so, br, tm}},
	{Name: "training.model_s", Unit: "s", Better: "lower", Moves: []string{"setup_s"}, MostlyIn: []string{so, br, tm}},
	{Name: "loadgen.latency_p99_ms", Unit: "ms", Better: "lower", MostlyIn: []string{so, br, tm}},
	{Name: "loadgen.max_rate_rps", Unit: "req/s", Better: "higher", MostlyIn: []string{so, br, tm}},
	{Name: "loadgen.late_ms_max", Unit: "ms", Better: "lower", Moves: []string{"latency_p50_ms"}, MostlyIn: []string{so}},
	{Name: "loadgen.sent", Unit: "count", Better: "higher", MostlyIn: []string{so, br, tm}},
	{Name: "loadgen.succeeded", Unit: "count", Better: "higher", MostlyIn: []string{so, br, tm}},
	{Name: "loadgen.failed", Unit: "count", Better: "lower", Moves: []string{"success_ratio"}, MostlyIn: []string{so, br, tm}},
	{Name: "trace.overhead_us_per_record", Unit: "us", Better: "lower", MostlyIn: []string{so, br, tm}},
	{Name: "trace.layer_sum_ratio", Unit: "ratio", Better: "lower", MostlyIn: []string{so, br, tm}},
}

var metricByName = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.Name] = d
	}
	return m
}()
