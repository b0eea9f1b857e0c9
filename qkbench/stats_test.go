package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 100}, {1, 100},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	// Whatever the sample size, the chosen percentile of distinct values has
	// at least tailSamples values strictly above it, unless it is the max.
	for n := 1; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i) // descending, so percentile must sort
		}
		p := tailPercentile(n)
		v := percentile(xs, p)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if p == 100 {
			if beyond != 0 {
				t.Fatalf("n=%d: max has %d samples beyond it", n, beyond)
			}
			continue
		}
		if beyond < tailSamples {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it, want ≥ %d", n, p, beyond, tailSamples)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 1: 1, 0: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	s := summarize([]float64{5, 1, 3, 4})
	if s.N != 4 || s.P50 != 3 || s.TailP != 100 || s.Tail != 5 {
		t.Errorf("summarize of four samples = %+v, want nearest-rank p50 3 and the max as tail", s)
	}
}

func TestPoissonScheduleReproducibleFromSeed(t *testing.T) {
	const rate, hot = 400.0, 0.5
	dur := 10 * time.Second
	a := poissonSchedule(7, rate, dur, hot, 32)
	b := poissonSchedule(7, rate, dur, hot, 32)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := poissonSchedule(8, rate, dur, hot, 32); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	want := rate * dur.Seconds()
	if n := float64(len(a)); math.Abs(n-want) > 4*math.Sqrt(want) {
		t.Errorf("%v of arrivals at %g/s: got %d, want about %g", dur, rate, len(a), want)
	}
	hots, fresh := 0, 0
	for i, x := range a {
		if x.Due < 0 || x.Due >= dur || (i > 0 && x.Due < a[i-1].Due) {
			t.Fatalf("arrival %d due at %v: out of order or outside [0, %v)", i, x.Due, dur)
		}
		if x.Hot {
			hots++
			if x.Row < 0 || x.Row >= 32 {
				t.Fatalf("hot arrival %d picks row %d of a pool of 32", i, x.Row)
			}
			continue
		}
		if x.Row != fresh {
			t.Fatalf("fresh arrival %d carries row %d, want the next fresh row %d", i, x.Row, fresh)
		}
		fresh++
	}
	if share := float64(hots) / float64(len(a)); math.Abs(share-hot) > 0.05 {
		t.Errorf("hot share %.3f, want about %g", share, hot)
	}
}

func TestGoodputCountsOnlyCorrectOKWithinLimit(t *testing.T) {
	limit := 50 * time.Millisecond
	outs := []outcome{
		{Status: 200, Correct: true, Latency: 10 * time.Millisecond}, // counts
		{Status: 200, Correct: true, Latency: 50 * time.Millisecond}, // counts: at the limit
		{Status: 200, Correct: true, Latency: 51 * time.Millisecond}, // late
		{Status: 200, Correct: false, Latency: 1 * time.Millisecond}, // wrong output
		{Status: 429, Latency: 1 * time.Millisecond},                 // refused
		{Status: 500, Latency: 1 * time.Millisecond},                 // failed
		{Status: 0, Latency: 1 * time.Millisecond},                   // no answer
		{Status: 200, Correct: true, Latency: 20 * time.Millisecond}, // counts
	}
	c := countOutcomes(outs, limit)
	want := phaseCounts{Attempted: 8, Succeeded: 4, Refused: 1, Failed: 3, WithinLimit: 3}
	if c != want {
		t.Errorf("countOutcomes = %+v, want %+v", c, want)
	}
	if g := goodput(outs, limit, 2*time.Second); g != 1.5 {
		t.Errorf("goodput = %g/s, want 1.5/s (3 in 2s)", g)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "fit", Start: 0, End: 10 * ms},
		{ID: 1, Parent: 0, Name: "gram", Start: 1 * ms, End: 4 * ms},
		{ID: 2, Parent: 0, Name: "gram", Start: 3 * ms, End: 6 * ms}, // overlaps its sibling
		{ID: 3, Parent: 0, Name: "svm", Start: 8 * ms, End: 12 * ms}, // runs past its parent
		{ID: 4, Parent: 3, Name: "decision", Start: 9 * ms, End: 10 * ms},
		{ID: 5, Parent: -1, Name: "open", Start: 0, End: -1}, // never ended
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{"fit": 3 * ms, "gram": 6 * ms, "svm": 3 * ms, "decision": 1 * ms} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
	if _, ok := self["open"]; ok {
		t.Error("an unfinished span was counted")
	}
	tr := newTracer("t")
	root := tr.start("a", -1)
	tr.end(tr.start("b", root))
	tr.end(root)
	if tr.spans[1].Parent != root || tr.spans[1].Run != "t" || tr.spans[0].End < tr.spans[1].End {
		t.Errorf("tracer recorded %+v", tr.spans)
	}
	var off *tracer
	off.end(off.start("x", -1)) // a nil tracer records nothing and must not panic
}

func TestHistQuantileOfDelta(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1}
	before := obs.HistogramSnapshot{Bounds: bounds, Counts: []uint64{5, 5, 5}, Count: 5}
	after := obs.HistogramSnapshot{Bounds: bounds, Counts: []uint64{5, 95, 104}, Count: 105}
	// 100 new observations: 90 in (0.001, 0.01], 9 in (0.01, 0.1], 1 beyond.
	if q := histQuantile(before, after, 0.5); q != 0.01 {
		t.Errorf("p50 = %g, want 0.01", q)
	}
	if q := histQuantile(before, after, 0.99); q != 0.1 {
		t.Errorf("p99 = %g, want 0.1", q)
	}
	if q := histQuantile(before, before, 0.5); q != 0 {
		t.Errorf("quantile of no observations = %g, want 0", q)
	}
}

func TestAssembleRejectsMissingOrBadMetrics(t *testing.T) {
	full := map[string]float64{}
	for name := range e2eUnits {
		full[name] = 1
	}
	if _, err := assemble(report{metrics: full, attempted: 1}, e2eUnits, true); err != nil {
		t.Fatalf("a complete report was refused: %v", err)
	}
	for name := range e2eUnits {
		m := map[string]float64{}
		for k, v := range full {
			if k != name {
				m[k] = v
			}
		}
		if _, err := assemble(report{metrics: m, attempted: 1}, e2eUnits, true); err == nil {
			t.Errorf("a report without %s was accepted", name)
		}
	}
	bad := map[string]float64{"setup_s": math.NaN()}
	if _, err := assemble(report{metrics: bad, attempted: 1}, layerUnits, false); err == nil {
		t.Error("an undeclared or NaN metric was accepted")
	}
	res, err := assemble(report{metrics: map[string]float64{}, attempted: 3, failed: 1}, layerUnits, false)
	if err != nil || res.Correct || len(res.Metrics) != len(layerUnits) {
		t.Errorf("per-layer report with a failure: correct=%v metrics=%d err=%v", res.Correct, len(res.Metrics), err)
	}
}

// TestNamesMatchBenchmarkJSON checks every emitted name and unit against the
// allowed patterns and against the metrics BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, set := range []map[string]string{e2eUnits, layerUnits} {
		for n, u := range set {
			if !name.MatchString(n) || !metricName.MatchString(n) {
				t.Errorf("metric name %q is malformed", n)
			}
			if !unit.MatchString(u) {
				t.Errorf("unit %q of %s is malformed", u, n)
			}
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	for _, c := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		emitted  map[string]string
	}{{"end_to_end", doc.EndToEnd, e2eUnits}, {"per_layer", doc.PerLayer, layerUnits}} {
		got := map[string]string{}
		for _, m := range c.declared {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, c.emitted) {
			t.Errorf("%s in BENCHMARK.json = %v, the benchmark emits %v", c.what, got, c.emitted)
		}
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
	}
}

func TestWindowedTailIgnoresOneBadWindow(t *testing.T) {
	var ms []float64
	for w := 0; w < 3; w++ {
		for i := 0; i < 1000; i++ {
			v := float64(i % 100)
			if w == 1 && i%10 == 0 {
				v = 1000 // a stall inside the second window
			}
			ms = append(ms, v)
		}
	}
	tail, p, tails := windowedTail(ms, 3)
	if p != 99 || len(tails) != 3 {
		t.Fatalf("windows of 1000 gave p%g over %d windows, want p99 over 3", p, len(tails))
	}
	if tail != 98 || tails[1] != 1000 {
		t.Errorf("tail %g from windows %v, want 98 with the stalled window at 1000", tail, tails)
	}
}

func TestBalancedSliceAlternatesClassesAndWraps(t *testing.T) {
	ds := &dataset.Dataset{}
	for i := 0; i < 6; i++ {
		y := -1
		if i < 2 {
			y = 1
		}
		ds.X = append(ds.X, []float64{float64(i)})
		ds.Y = append(ds.Y, y)
	}
	x, y := balancedSlice(ds, 1, 4) // rows 2..3 of each class: positives wrap
	wantX := []float64{0, 4, 1, 5}
	wantY := []int{1, -1, 1, -1}
	for k := range wantX {
		if x[k][0] != wantX[k] || y[k] != wantY[k] {
			t.Fatalf("slice = %v %v, want rows %v labels %v", x, y, wantX, wantY)
		}
	}
}
