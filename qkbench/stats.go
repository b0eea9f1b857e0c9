package main

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"time"
)

// tailSamples is the least number of samples that must lie beyond a
// percentile before it is reported: the tail percentile of a sample of n is
// the highest one with at least this many samples above it.
const tailSamples = 10

// tailLadder lists the percentiles the tail rule chooses between, highest
// first, in tenths of a percent.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tailPercentile returns the highest percentile of tailLadder that leaves at
// least tailSamples of n samples beyond it. When none does (n < 20) it
// returns 100: the maximum is the only tail the sample has.
func tailPercentile(n int) float64 {
	for _, pm := range tailLadder {
		if n-nearestRank(pm, n) >= tailSamples {
			return float64(pm) / 10
		}
	}
	return 100
}

// nearestRank is the 1-based rank of percentile pm (in tenths of a percent)
// in a sample of n: the smallest rank with at least pm/1000 of the sample at
// or below it. Integer arithmetic keeps p99.9 of 10,000 at rank 9,990.
func nearestRank(pm, n int) int {
	return max((pm*n+999)/1000, 1)
}

// percentile returns the p-th percentile (0..100, to a tenth) of xs by the
// nearest-rank rule. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(int(math.Round(p*10)), len(s))-1]
}

// median is the midpoint of xs (mean of the two middle samples when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowerQuartile is the nearest-rank p25 of repeated timings of the same
// work. Interference from other tenants of a shared machine only ever adds
// time, and comes in stretches of a second or more, so the lower quartile
// follows the program's own cost where the median follows the neighbours.
func lowerQuartile(xs []float64) float64 { return percentile(xs, 25) }

// latencySummary is a latency sample reduced to its p50 and the tail
// percentile the sample supports, both by the nearest-rank rule.
type latencySummary struct {
	N      int
	P50    float64
	TailP  float64
	Tail   float64
	MaxVal float64
}

func summarize(ms []float64) latencySummary {
	s := latencySummary{N: len(ms), TailP: tailPercentile(len(ms))}
	if len(ms) == 0 {
		return s
	}
	s.P50 = percentile(ms, 50)
	s.Tail = percentile(ms, s.TailP)
	for _, v := range ms {
		s.MaxVal = math.Max(s.MaxVal, v)
	}
	return s
}

func (s latencySummary) String() string {
	return fmt.Sprintf("p50 %.3f ms, p%g %.3f ms, max %.3f ms (n=%d)", s.P50, s.TailP, s.Tail, s.MaxVal, s.N)
}

// windowedTail cuts a latency sample, in arrival order, into k consecutive
// windows and returns the median of the windows' tail percentiles, with the
// percentile the windows support. One stall moves one window's tail, not
// the result.
func windowedTail(ms []float64, k int) (tail, p float64, tails []float64) {
	p = tailPercentile(len(ms) / k)
	for w := 0; w < k; w++ {
		tails = append(tails, percentile(ms[w*len(ms)/k:(w+1)*len(ms)/k], p))
	}
	return median(tails), p, tails
}

// arrival is one request of an open-loop schedule: when it is due, relative
// to the start of its phase, and which row it carries.
type arrival struct {
	Due time.Duration
	// Hot marks a row drawn from the repeated pool; Row then indexes the
	// pool. Otherwise Row is the position in the stream of fresh rows.
	Hot bool
	Row int
}

// poissonSchedule draws the arrivals of an open loop at rate requests per
// second over dur: exponential gaps, each request hot with probability
// hotShare (a uniform pick from hotPool rows) and otherwise the next fresh
// row. The same seed yields the same schedule.
func poissonSchedule(seed int64, rate float64, dur time.Duration, hotShare float64, hotPool int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	fresh := 0
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		a := arrival{Due: due}
		if rng.Float64() < hotShare {
			a.Hot, a.Row = true, rng.Intn(hotPool)
		} else {
			a.Row = fresh
			fresh++
		}
		out = append(out, a)
	}
}

// outcome is what one open-loop request produced.
type outcome struct {
	// Status is the HTTP status code (0 when the handler never answered).
	Status int
	// Correct is set when a 200 carried the expected score (or one that no
	// reference covers); a 200 with a wrong score is a failure.
	Correct bool
	// Latency runs from the request's due time to its answer.
	Latency time.Duration
}

// phaseCounts tallies one open-loop phase. Refused (429) requests are load
// shed by policy and are counted apart from failures; both miss any latency
// limit.
type phaseCounts struct {
	Attempted, Succeeded, Refused, Failed, WithinLimit int
}

func countOutcomes(outs []outcome, limit time.Duration) phaseCounts {
	var c phaseCounts
	for _, o := range outs {
		c.Attempted++
		switch {
		case o.Status == 200 && o.Correct:
			c.Succeeded++
			if o.Latency <= limit {
				c.WithinLimit++
			}
		case o.Status == 429:
			c.Refused++
		default:
			c.Failed++
		}
	}
	return c
}

// goodput is the rate of correct 200s answered within the latency limit
// over a phase of length dur.
func goodput(outs []outcome, limit, dur time.Duration) float64 {
	return float64(countOutcomes(outs, limit).WithinLimit) / dur.Seconds()
}

// metricName is the pattern every emitted metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
