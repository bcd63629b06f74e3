package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Operation kinds.
const (
	kindPredict = iota
	kindExplain
	kindBatch
)

// op is one operation of a schedule. Due is the offset from the phase
// start at which an open loop must send it; a closed loop sends it when
// a client frees up and sets Due to that instant.
type op struct {
	Due  time.Duration
	Kind int
	Item int // pair index (single ops) or batch index
}

// decision is one answered pair: a single response or one batch item.
type decision struct {
	Match bool
	Proba float64
	Err   string // per-item error of a batch response
}

// outcome is what became of one op. Sent and Done are offsets from the
// phase start; Skipped ops were never sent because the generator fell
// further behind than maxLate.
type outcome struct {
	Op         op
	Sent, Done time.Duration
	Skipped    bool
	Err        string // transport error, timeout, non-200 or bad body
	Decisions  []decision
}

func (o outcome) ok() bool { return !o.Skipped && o.Err == "" }

// latency is timed from the op's due time, so a stall also charges the
// wait it imposes on the ops queued behind it.
func (o outcome) latency() time.Duration { return o.Done - o.Op.Due }

func (o outcome) late() time.Duration { return o.Sent - o.Op.Due }

// maxLate bounds how far behind its schedule an open loop may fall:
// later ops are skipped (and fail their rung) so an overloaded rung ends
// on time.
const maxLate = time.Second

// poissonSchedule draws a seeded open-loop schedule: exponential gaps at
// rate per second for dur, each op an /explain with probability
// explainShare and otherwise a /predict, on the next pair that pairs
// hands out.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration, pairs *cycle, explainShare float64) []op {
	var out []op
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return out
		}
		kind := kindPredict
		if rng.Float64() < explainShare {
			kind = kindExplain
		}
		out = append(out, op{Due: t, Kind: kind, Item: pairs.next()})
	}
}

// cycle hands out the indices 0..n-1 in seeded random order, drawing a
// fresh order each time it runs out, so every pair of the pool is used
// equally often and F1 does not depend on which pairs a run happened to
// draw. It is not safe for concurrent use.
type cycle struct {
	rng   *rand.Rand
	order []int
	pos   int
}

func newCycle(rng *rand.Rand, n int) *cycle { return &cycle{rng: rng, order: rng.Perm(n)} }

func (c *cycle) next() int {
	if c.pos == len(c.order) {
		c.order, c.pos = c.rng.Perm(len(c.order)), 0
	}
	c.pos++
	return c.order[c.pos-1]
}

// runOpenLoop sends the schedule over conns connections: each worker
// takes the next op, waits for its due time, sends it and records the
// outcome. When every connection is busy, ops go out late, and the
// lateness is part of their latency.
func runOpenLoop(ctx context.Context, sched []op, conns int, do func(ctx context.Context, worker int, o op) outcome) []outcome {
	out := make([]outcome, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				o := sched[i]
				if wait := o.Due - time.Since(start); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
					}
				}
				sent := time.Since(start)
				if sent-o.Due > maxLate || ctx.Err() != nil {
					out[i] = outcome{Op: o, Sent: sent, Done: sent, Skipped: true, Err: "skipped: generator too far behind"}
					continue
				}
				res := do(ctx, w, o)
				res.Op, res.Sent, res.Done = o, sent, time.Since(start)
				out[i] = res
			}
		}(w)
	}
	wg.Wait()
	return out
}

// runClosedLoop runs clients that each send their next op as soon as the
// previous one returns, until dur has passed. next hands out op items in
// a fixed order shared by all clients.
func runClosedLoop(ctx context.Context, clients int, dur time.Duration, next func() int, do func(ctx context.Context, worker int, o op) outcome) []outcome {
	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur && ctx.Err() == nil {
				sent := time.Since(start)
				o := op{Due: sent, Kind: kindBatch, Item: next()}
				res := do(ctx, c, o)
				res.Op, res.Sent, res.Done = o, sent, time.Since(start)
				mu.Lock()
				out = append(out, res)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out
}

// phaseStats summarizes one load phase (an open-loop rung or a closed
// loop).
type phaseStats struct {
	Rate      float64 `json:"rate_rps,omitempty"` // offered rate; 0 for a closed loop
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"` // sent but failed
	Skipped   int     `json:"skipped"`
	P50MS     float64 `json:"p50_ms"`
	TailMS    float64 `json:"tail_ms"`
	TailQ     float64 `json:"tail_q"`
	Beyond    int     `json:"samples_beyond_tail"`
	LateMaxMS float64 `json:"late_ms_max"`
	Backlog   bool    `json:"backlog_grows"`
	Wall      float64 `json:"wall_s"`
	Pass      bool    `json:"pass"`
}

// summarize computes a phase's statistics; the phase passes when nothing
// failed or was skipped, the tail is within limit, and the backlog did
// not grow.
func summarize(rate float64, outs []outcome, limit time.Duration) phaseStats {
	st := phaseStats{Rate: rate}
	var lat []float64
	var end time.Duration
	for _, o := range outs {
		switch {
		case o.Skipped:
			st.Skipped++
		case o.Err != "":
			st.Sent++
			st.Failed++
		default:
			st.Sent++
			st.Succeeded++
			lat = append(lat, ms(o.latency()))
		}
		if !o.Skipped {
			st.LateMaxMS = max(st.LateMaxMS, ms(o.late()))
		}
		end = max(end, o.Done)
	}
	st.Wall = end.Seconds()
	t := tailOf(lat, 0.99)
	st.P50MS, st.TailMS, st.TailQ, st.Beyond = median(lat), t.Value, t.Q, t.Beyond
	st.Backlog = backlogGrows(outs, limit/2)
	st.Pass = st.Failed == 0 && st.Skipped == 0 && !st.Backlog && st.Succeeded > 0 && st.TailMS <= ms(limit)
	return st
}

// backlogGrows reports whether the generator fell progressively behind
// its schedule: the median lateness of the last quarter of ops (by due
// time) exceeds that of the first quarter by more than slack. A skipped
// op always means it grew.
func backlogGrows(outs []outcome, slack time.Duration) bool {
	var late []float64
	for _, o := range outs {
		if o.Skipped {
			return true
		}
		late = append(late, ms(o.late()))
	}
	q := len(late) / 4
	if q < 2 {
		return false
	}
	first := append([]float64(nil), late[:q]...)
	last := append([]float64(nil), late[len(late)-q:]...)
	return median(last)-median(first) > ms(slack)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// windowRates splits [0, end of the last op) into windows of length win
// and returns, per whole window, the weight of the successful ops per
// second; an op's weight counts toward each window in proportion to the
// share of its duration that falls inside it. The median of the result
// is a rate that a host stall in a few windows moves little.
func windowRates(outs []outcome, win time.Duration, weight func(outcome) float64) []float64 {
	var end time.Duration
	for _, o := range outs {
		end = max(end, o.Done)
	}
	n := int(end / win)
	if n == 0 {
		return nil
	}
	acc := make([]float64, n)
	for _, o := range outs {
		if !o.ok() || o.Done <= o.Sent {
			continue
		}
		w := weight(o) / float64(o.Done-o.Sent)
		for k := int(o.Sent / win); k < n && time.Duration(k)*win < o.Done; k++ {
			a := max(o.Sent, time.Duration(k)*win)
			b := min(o.Done, time.Duration(k+1)*win)
			acc[k] += w * float64(b-a)
		}
	}
	for k := range acc {
		acc[k] /= win.Seconds()
	}
	return acc
}

// newClient returns an HTTP client that keeps exactly one connection to
// the target alive, so a load generator opens one connection per worker.
func newClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			Proxy:               nil,
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// post sends body and returns the response body of a 200, or an error
// naming the status.
func post(ctx context.Context, c *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}
