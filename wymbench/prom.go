package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// sample is one series value from a Prometheus text exposition.
type sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// scrape is a parsed /metrics body.
type scrape []sample

// parseProm parses the Prometheus text format (0.0.4): comment and blank
// lines are skipped; every other line is `name[{labels}] value`.
func parseProm(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		s, err := parseSample(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseSample(text string) (sample, error) {
	s := sample{Labels: map[string]string{}}
	rest := text
	if i := strings.IndexAny(text, "{ "); i < 0 {
		return s, fmt.Errorf("no value in %q", text)
	} else {
		s.Name, rest = text[:i], text[i:]
	}
	if strings.HasPrefix(rest, "{") {
		var err error
		if rest, err = parseLabels(rest[1:], s.Labels); err != nil {
			return s, err
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", text)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", text, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels reads `k="v",...}` into into and returns the text after
// the closing brace. Values may hold \" \\ and \n escapes.
func parseLabels(text string, into map[string]string) (string, error) {
	for {
		text = strings.TrimLeft(text, " ,")
		if strings.HasPrefix(text, "}") {
			return text[1:], nil
		}
		eq := strings.Index(text, "=\"")
		if eq <= 0 {
			return "", fmt.Errorf("bad label set near %q", text)
		}
		key := text[:eq]
		text = text[eq+2:]
		var b strings.Builder
		closed := false
		for i := 0; i < len(text); i++ {
			c := text[i]
			if c == '\\' && i+1 < len(text) {
				i++
				switch text[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(text[i])
				}
				continue
			}
			if c == '"' {
				text = text[i+1:]
				closed = true
				break
			}
			b.WriteByte(c)
		}
		if !closed {
			return "", fmt.Errorf("unterminated label %q", key)
		}
		into[key] = b.String()
	}
}

// sum adds the values of every series of the named metric whose labels
// include all of want.
func (s scrape) sum(name string, want map[string]string) float64 {
	var total float64
	for _, x := range s {
		if x.Name != name || !hasLabels(x.Labels, want) {
			continue
		}
		total += x.Value
	}
	return total
}

// sumExcept adds the named metric's series whose label key does not
// hold the given value.
func (s scrape) sumExcept(name, key, value string) float64 {
	var total float64
	for _, x := range s {
		if x.Name == name && x.Labels[key] != value {
			total += x.Value
		}
	}
	return total
}

func hasLabels(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// promDelta is the change of a metric between two scrapes of one process.
func promDelta(before, after scrape, name string, want map[string]string) float64 {
	return after.sum(name, want) - before.sum(name, want)
}

// meanDelta is the mean observation, in milliseconds, of a seconds
// histogram over the interval between two scrapes; 0 when nothing was
// observed.
func meanDeltaMS(before, after scrape, hist string, want map[string]string) (float64, float64) {
	count := promDelta(before, after, hist+"_count", want)
	if count <= 0 {
		return 0, 0
	}
	return 1e3 * promDelta(before, after, hist+"_sum", want) / count, count
}

// fetchMetrics scrapes an admin listener's /metrics.
func fetchMetrics(c *http.Client, base string) (scrape, error) {
	c2 := *c
	c2.Timeout = 5 * time.Second
	resp, err := c2.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseProm(resp.Body)
}
