package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wym/internal/datagen"
)

// serve-online settings.
const (
	soProfile      = "S-AG" // short product records, ~11 tokens per pair
	soExplainShare = 0.2    // share of /explain in the traffic mix
	soLimit        = 20 * time.Millisecond
	// The rate ladder: rung k offers ladderBase * ladderStep^k req/s.
	ladderBase   = 200.0
	ladderStep   = 1.05
	ladderTop    = 57 // highest rung, ~3.2k req/s
	soRefRung    = 33 // the reference rate, ~1000 req/s
	soFirstProbe = 45 // ~1.8k req/s
	soProbes     = 5  // binary-search probes on the ladder
	// soRefShare is the share of the measured seconds spent at the
	// reference rate, in windows of soRefWindow; the ladder probes share
	// the rest, each in soProbeWindows windows.
	soRefShare     = 0.4
	soRefWindow    = 1200 * time.Millisecond
	soProbeWindows = 3
	warmup         = time.Second
	// soReplayRecords is how many pool pairs the traced replay runs.
	soReplayRecords = 1500
	clientTimeout   = 5 * time.Second
)

func rung(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// phaseRNG is the seeded generator of one named load phase.
func phaseRNG(seed int64, phase string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, phase)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// serveOnline drives one wym-server serving the arena model with the
// audit log on, with open-loop /predict and /explain traffic.
func serveOnline(ctx context.Context, r *run) error {
	pool := datagen.Generate(inputProfile(soProfile), 1.0).Pairs
	bodies := make([][]byte, len(pool))
	for i, p := range pool {
		raw, err := json.Marshal(bodyOf(p))
		if err != nil {
			return err
		}
		bodies[i] = raw
	}
	gob, wyma, auditDir := r.path("model.gob"), r.path("model.wyma"), r.path("audit")

	var srv *server
	err := r.timedSetup(func(last bool) error {
		if err := r.train(ctx, soProfile, gob); err != nil {
			return err
		}
		if err := r.convert(ctx, gob, wyma); err != nil {
			return err
		}
		if err := os.RemoveAll(auditDir); err != nil {
			return err
		}
		s, err := startServer("wym-server", r.bin("wym-server"), 0, func(addr, admin string) []string {
			return []string{"-addr", addr, "-admin-addr", admin, "-model", wyma,
				"-audit-dir", auditDir, "-audit-sample", "1"}
		}, 1, runtime.NumCPU()-1, r.dir, serverReady)
		if err != nil {
			return err
		}
		r.track(s.proc)
		if !last {
			s.stop(stopGrace)
			return nil
		}
		srv = s
		return nil
	})
	if err != nil {
		return err
	}

	clients := make([]*http.Client, benchProcs())
	for i := range clients {
		clients[i] = newClient(clientTimeout)
	}
	do := func(ctx context.Context, w int, o op) outcome {
		route := "/predict"
		if o.Kind == kindExplain {
			route = "/explain"
		}
		raw, err := post(ctx, clients[w], srv.URL+route, bodies[o.Item])
		if err != nil {
			return outcome{Err: err.Error()}
		}
		var resp struct {
			Match       bool     `json:"match"`
			Probability *float64 `json:"probability"`
		}
		if err := json.Unmarshal(raw, &resp); err != nil || resp.Probability == nil {
			return outcome{Err: fmt.Sprintf("bad %s body: %.200s", route, raw)}
		}
		return outcome{Decisions: []decision{{Match: resp.Match, Proba: *resp.Probability}}}
	}
	pairs := newCycle(phaseRNG(r.opts.seed, "pairs"), len(pool))
	phase := func(name string, rate float64, dur time.Duration) []outcome {
		sched := poissonSchedule(phaseRNG(r.opts.seed, name), rate, dur, pairs, soExplainShare)
		return runOpenLoop(ctx, sched, benchProcs(), do)
	}

	all := phase("warmup", rung(soRefRung), warmup)
	warm := len(all)
	measured := time.Duration(r.opts.seconds) * time.Second
	// An untraced run spends all its measured time at the reference
	// rate; a traced run also climbs the rate ladder.
	refWindows, probes := max(3, int(measured/soRefWindow)), 0
	if r.opts.trace {
		refWindows, probes = max(3, int(float64(measured)*soRefShare/float64(soRefWindow))), soProbes
	}
	probeWindow := (measured - time.Duration(refWindows)*soRefWindow) / (soProbes * soProbeWindows)

	var before scrape
	if r.opts.trace {
		if before, err = fetchMetrics(clients[0], srv.Admin); err != nil {
			return err
		}
	}
	// windows runs n back-to-back windows at one rate; a stall of the
	// host during one window then moves the medians of the rung little.
	windows := func(name string, rate float64, n int, dur time.Duration) (rungStats, []outcome) {
		var outs []outcome
		var ws []phaseStats
		for i := 0; i < n; i++ {
			w := phase(fmt.Sprintf("%s-%d", name, i), rate, dur)
			outs = append(outs, w...)
			ws = append(ws, summarize(rate, w, soLimit))
		}
		return verdict(rate, ws, soLimit), outs
	}
	// The reference windows are spread between the ladder probes, so a
	// host stall of a few seconds hits few of them. The ladder is a binary
	// search on fixed rungs: lo is the highest rung known to pass, hi the
	// lowest known to fail (ladderTop+1 is assumed to fail); the first
	// probe is soFirstProbe.
	var refStats []phaseStats
	var refOuts []outcome
	refWindow := func(i int) {
		w := phase(fmt.Sprintf("reference-%d", i), rung(soRefRung), soRefWindow)
		refOuts = append(refOuts, w...)
		refStats = append(refStats, summarize(rung(soRefRung), w, soLimit))
	}
	var rungs []rungStats
	lo, hi := -1, ladderTop+1
	for k := 0; k < max(refWindows, probes); k++ {
		if k < refWindows {
			refWindow(k)
		}
		if k >= probes || hi-lo <= 1 {
			continue
		}
		m := max((lo+hi)/2, 0)
		if k == 0 {
			m = soFirstProbe
		}
		st, outs := windows(fmt.Sprintf("probe-%d", k), rung(m), soProbeWindows, probeWindow)
		all = append(all, outs...)
		rungs = append(rungs, st)
		note("ladder rung %d (%.0f req/s): %s", m, st.Rate, st)
		if st.Pass {
			lo = m
		} else {
			hi = m
		}
	}
	all = append(all, refOuts...)
	ref := verdict(rung(soRefRung), refStats, soLimit)
	note("reference rung %.0f req/s: %s", ref.Rate, ref)
	r.detail["reference"] = ref
	r.detail["rungs"] = rungs

	var after scrape // right after the measured windows, before the server drains
	if r.opts.trace {
		if after, err = fetchMetrics(clients[0], srv.Admin); err != nil {
			return err
		}
	}
	srv.stop(stopGrace)
	rss := srv.peakRSSMB()

	tol, err := r.arenaTolerance()
	if err != nil {
		return err
	}
	conf, err := r.checkDecisions(ctx, all, pool, func(o outcome) []int { return []int{o.Op.Item} }, wyma, tol)
	if err != nil {
		return err
	}

	r.set("latency_p50_ms", ref.P50MS)
	r.set("throughput_pairs_per_s", ref.Throughput)
	r.set("loadgen.latency_p99_ms", ref.TailMS)
	maxRate := 0.0
	if lo >= 0 {
		maxRate = rung(lo)
	}
	r.set("loadgen.max_rate_rps", maxRate)
	r.successRatio()
	r.set("f1", conf.f1())
	r.set("peak_rss_mb", rss)

	if !r.opts.trace {
		return nil
	}
	// Client and handler means over the same requests: every measured
	// window (the warm-up precedes the first scrape).
	var clientMS []float64
	for _, o := range all[warm:] {
		if o.ok() {
			clientMS = append(clientMS, ms(o.Done-o.Sent))
		}
	}
	handler := mergedMeanMS(before, after, "wym_http_request_seconds", "/predict", "/explain")
	r.set("serve.handler_ms", handler)
	r.set("serve.outside_handler_ms", mean(clientMS)-handler)
	r.set("serve.shed_total", after.sum("wym_server_shed_total", nil))
	records := after.sum("wym_audit_records_total", nil)
	r.set("audit.records_total", records)
	r.set("audit.dropped_total", after.sum("wym_audit_dropped_total", nil))
	bytes, err := dirBytes(auditDir)
	if err != nil {
		return err
	}
	r.set("audit.bytes_per_record", ratio(float64(bytes), records))
	r.setLoadgen(all)
	r.zero("cluster.", "blocking.", "matchjob.")
	return r.replay(ctx, replaySpec{
		GobPath: gob, ServePath: wyma, Pairs: pool[:min(soReplayRecords, len(pool))],
		Batch: brBatch, Audit: true,
	})
}

// mergedMeanMS is the mean of a seconds histogram over the given routes
// between two scrapes, in milliseconds.
func mergedMeanMS(before, after scrape, hist string, routes ...string) float64 {
	var sum, count float64
	for _, rt := range routes {
		want := map[string]string{"route": rt}
		sum += promDelta(before, after, hist+"_sum", want)
		count += promDelta(before, after, hist+"_count", want)
	}
	return 1e3 * ratio(sum, count)
}

// rungStats is the verdict on one rate of the ladder, from its windows.
type rungStats struct {
	Rate       float64      `json:"rate_rps"`
	P50MS      float64      `json:"p50_ms"`  // median of the windows' medians
	TailMS     float64      `json:"tail_ms"` // median of the windows' tails
	Throughput float64      `json:"throughput_pairs_per_s"`
	Pass       bool         `json:"pass"`
	Windows    []phaseStats `json:"windows"`
}

func (s rungStats) String() string {
	sent, late := 0, 0.0
	for _, w := range s.Windows {
		sent += w.Sent
		late = max(late, w.LateMaxMS)
	}
	return fmt.Sprintf("p50 %.3f ms, p99 %.3f ms (medians of %d windows), %d sent, late max %.1f ms, pass %v",
		s.P50MS, s.TailMS, len(s.Windows), sent, late, s.Pass)
}

// verdict combines a rung's windows: latencies are the medians over the
// windows; the rung passes when no op failed or was skipped, the median
// tail is within limit, and the backlog grew in fewer than half of the
// windows.
func verdict(rate float64, ws []phaseStats, limit time.Duration) rungStats {
	st := rungStats{Rate: rate, Windows: ws, Pass: true}
	var p50, tails, thr []float64
	grew := 0
	for _, w := range ws {
		p50 = append(p50, w.P50MS)
		tails = append(tails, w.TailMS)
		thr = append(thr, ratio(float64(w.Succeeded), w.Wall))
		if w.Failed > 0 || w.Skipped > 0 || w.Succeeded == 0 {
			st.Pass = false
		}
		if w.Backlog {
			grew++
		}
	}
	st.P50MS, st.TailMS, st.Throughput = median(p50), median(tails), median(thr)
	if st.TailMS > ms(limit) || 2*grew >= len(ws) {
		st.Pass = false
	}
	return st
}

// setLoadgen reports the load generator's own counts over all phases.
func (r *run) setLoadgen(outs []outcome) {
	var sent, ok, failed int
	var late float64
	for _, o := range outs {
		if o.Skipped {
			continue
		}
		sent++
		if o.ok() {
			ok++
		} else {
			failed++
		}
		late = max(late, ms(o.late()))
	}
	r.set("loadgen.sent", float64(sent))
	r.set("loadgen.succeeded", float64(ok))
	r.set("loadgen.failed", float64(failed))
	r.set("loadgen.late_ms_max", late)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
