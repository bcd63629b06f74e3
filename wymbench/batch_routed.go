package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"wym/internal/datagen"
)

// batch-routed settings.
const (
	brProfile = "T-AB" // the widest records, ~28 tokens per pair
	// brScale sizes the pool (~2,400 pairs): a run cycles through it
	// several times, so every pair is answered and checked, and the
	// in-process check stays a few seconds.
	brScale    = 0.25
	brBatch    = 64 // pairs per /predict/batch body
	brReplicas = 2
	// brBatches is the length of the seeded batch sequence the clients
	// walk through (wrapping around if a run outlasts it).
	brBatches       = 4096
	brReplayRecords = 200
	// brWindow is the window the closed loop's rates are taken over; the
	// reported rate is the median window.
	brWindow = time.Second
)

// fleet is one set-up's wym-router and the replicas behind it.
type fleet struct {
	replicas []*server
	router   *server
}

// admins lists the admin listeners, the router's first.
func (f *fleet) admins() []string {
	out := []string{f.router.Admin}
	for _, s := range f.replicas {
		out = append(out, s.Admin)
	}
	return out
}

// stop stops the router, then the replicas, and returns their summed
// peak RSS.
func (f *fleet) stop() float64 {
	f.router.stop(stopGrace)
	rss := f.router.peakRSSMB()
	for _, s := range f.replicas {
		s.stop(stopGrace)
		rss += s.peakRSSMB()
	}
	return rss
}

// startFleet trains the gob model and starts the replicas serving it
// and the router in front of them. Each replica is bound to a CPU of
// its own.
func (r *run) startFleet(ctx context.Context, gob string) (*fleet, error) {
	if err := r.train(ctx, brProfile, gob); err != nil {
		return nil, err
	}
	f := &fleet{}
	var urls []string
	for i := 0; i < brReplicas; i++ {
		s, err := startServer(fmt.Sprintf("wym-server-%d", i+1), r.bin("wym-server"), 1+i, func(addr, admin string) []string {
			return []string{"-addr", addr, "-admin-addr", admin, "-model", gob}
		}, 1, i%runtime.NumCPU(), r.dir, serverReady)
		if err != nil {
			return nil, err
		}
		r.track(s.proc)
		f.replicas = append(f.replicas, s)
		urls = append(urls, s.URL)
	}
	rt, err := startServer("wym-router", r.bin("wym-router"), 1+brReplicas, func(addr, admin string) []string {
		return []string{"-addr", addr, "-admin-addr", admin, "-replicas", strings.Join(urls, ","),
			"-probe-interval", "100ms"}
	}, 1, -1, r.dir, routerReady(brReplicas))
	if err != nil {
		return nil, err
	}
	r.track(rt.proc)
	f.router = rt
	return f, nil
}

// batchRouted drives wym-router in front of two wym-server replicas
// serving the gob model, with closed-loop /predict/batch clients.
//
// Each set-up is followed by a slice of the measured seconds on the
// fleet it started (an untraced run sets up three times, so it measures
// three slices of a third each). Spreading the measurement over the
// whole run lets one slow spell of a shared host move the medians less.
func batchRouted(ctx context.Context, r *run) error {
	pool := datagen.Generate(inputProfile(brProfile), brScale).Pairs
	items := make([][]byte, len(pool))
	for i, p := range pool {
		raw, err := json.Marshal(bodyOf(p))
		if err != nil {
			return err
		}
		items[i] = raw
	}
	pairs := newCycle(phaseRNG(r.opts.seed, "batches"), len(pool))
	batches := make([][]int, brBatches)
	for b := range batches {
		batches[b] = make([]int, brBatch)
		for k := range batches[b] {
			batches[b][k] = pairs.next()
		}
	}
	body := func(b int) []byte {
		var buf bytes.Buffer
		buf.WriteString(`{"pairs":[`)
		for k, i := range batches[b] {
			if k > 0 {
				buf.WriteByte(',')
			}
			buf.Write(items[i])
		}
		buf.WriteString(`]}`)
		return buf.Bytes()
	}

	clients := make([]*http.Client, benchProcs())
	for i := range clients {
		clients[i] = newClient(clientTimeout * 4)
	}
	var target string // the current fleet's router
	do := func(ctx context.Context, w int, o op) outcome {
		raw, err := post(ctx, clients[w], target+"/predict/batch", body(o.Item))
		if err != nil {
			return outcome{Err: err.Error()}
		}
		var resp struct {
			Results []struct {
				Match       *bool    `json:"match"`
				Probability *float64 `json:"probability"`
				Error       string   `json:"error"`
			} `json:"results"`
		}
		if err := json.Unmarshal(raw, &resp); err != nil {
			return outcome{Err: fmt.Sprintf("bad batch body: %.200s", raw)}
		}
		out := outcome{Decisions: make([]decision, len(resp.Results))}
		for k, it := range resp.Results {
			d := decision{Err: it.Error}
			if it.Match == nil || it.Probability == nil {
				if d.Err == "" {
					d.Err = "item without a decision"
				}
			} else {
				d.Match, d.Proba = *it.Match, *it.Probability
			}
			out.Decisions[k] = d
		}
		return out
	}
	var next atomic.Int64
	seq := func() int { return int(next.Add(1)-1) % brBatches }
	scrapeAll := func(admins []string) ([]scrape, error) {
		var out []scrape
		for _, a := range admins {
			s, err := fetchMetrics(clients[0], a)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil
	}

	gob := r.path("model.gob")
	slice := time.Duration(r.opts.seconds) * time.Second / time.Duration(r.reps())
	var (
		all, measured       []outcome
		setups, rss         []float64
		pairRates, reqRates []float64
		admins              []string
		before, after       []scrape
	)
	for rep := 0; rep < r.reps(); rep++ {
		start := time.Now()
		f, err := r.startFleet(ctx, gob)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		target, admins = f.router.URL, f.admins()
		all = append(all, runClosedLoop(ctx, benchProcs(), warmup, seq, do)...)
		if r.opts.trace {
			if before, err = scrapeAll(admins); err != nil {
				return err
			}
		}
		// Two clients need little CPU; one P for them leaves the CPUs to
		// the replicas and the router.
		prev := runtime.GOMAXPROCS(1)
		m := runClosedLoop(ctx, benchProcs(), slice, seq, do)
		runtime.GOMAXPROCS(prev)
		if r.opts.trace {
			if after, err = scrapeAll(admins); err != nil {
				return err
			}
		}
		rss = append(rss, f.stop())
		all, measured = append(all, m...), append(measured, m...)
		pairRates = append(pairRates, windowRates(m, brWindow, func(o outcome) float64 { return float64(len(o.Decisions)) })...)
		reqRates = append(reqRates, windowRates(m, brWindow, func(outcome) float64 { return 1 })...)
	}
	r.env.GOMAXPROCS["wymbench-closed-loop"] = 1
	r.recordSetup(setups)
	st := summarize(0, measured, 0)
	st.Wall = slice.Seconds() * float64(r.reps())
	r.detail["closed_loop"] = st
	r.detail["peak_rss_mb_each"] = append([]float64(nil), rss...)
	note("closed loop, %d clients x %d pairs, %d slices of %v: %+v", benchProcs(), brBatch, r.reps(), slice, st)

	conf, err := r.checkDecisions(ctx, all, pool, func(o outcome) []int { return batches[o.Op.Item] }, gob, gobTolerance)
	if err != nil {
		return err
	}
	r.detail["pairs_per_s_windows"] = append([]float64(nil), pairRates...)
	r.set("latency_p50_ms", st.P50MS)
	r.set("loadgen.latency_p99_ms", st.TailMS)
	r.set("loadgen.max_rate_rps", median(reqRates))
	r.set("throughput_pairs_per_s", median(pairRates))
	r.successRatio()
	r.set("f1", conf.f1())
	r.set("peak_rss_mb", median(rss))

	if !r.opts.trace {
		return nil
	}
	var clientMS []float64
	for _, o := range measured {
		if o.ok() {
			clientMS = append(clientMS, ms(o.Done-o.Sent))
		}
	}
	var repSum, repCount, shed float64
	for i := 1; i < len(admins); i++ {
		want := map[string]string{"route": "/predict/batch"}
		repSum += promDelta(before[i], after[i], "wym_http_request_seconds_sum", want)
		repCount += promDelta(before[i], after[i], "wym_http_request_seconds_count", want)
		shed += promDelta(before[i], after[i], "wym_server_shed_total", nil)
	}
	replicaMS := 1e3 * ratio(repSum, repCount)
	routerMS, _ := meanDeltaMS(before[0], after[0], "wym_router_request_seconds", map[string]string{"route": "/predict/batch"})
	r.set("serve.handler_ms", replicaMS)
	r.set("serve.outside_handler_ms", mean(clientMS)-routerMS)
	r.set("serve.shed_total", shed)
	r.set("cluster.overhead_ms", routerMS-replicaMS)
	r.set("cluster.retries_total", promDelta(before[0], after[0], "wym_router_retries_total", nil))
	r.set("cluster.forward_failures_total",
		after[0].sumExcept("wym_router_forwards_total", "outcome", "ok")-before[0].sumExcept("wym_router_forwards_total", "outcome", "ok"))
	r.setLoadgen(measured)
	r.zero("audit.", "blocking.", "matchjob.")
	return r.replay(ctx, replaySpec{
		GobPath: gob, ServePath: gob, Pairs: pool[:min(brReplayRecords, len(pool))], Batch: brBatch,
	})
}
