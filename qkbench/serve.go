package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/serve"
	httpapi "repro/internal/serve/http"
	"repro/internal/serve/registry"
	"repro/internal/statecache"
	"repro/internal/svm"
)

// The serve-open traffic. Rates are requests per second of one row each.
// The batcher answered about 635 rows/s on a 2-vCPU machine: overload sits
// near 1.4 times that, nominal near a third of it (at half, latency on that
// shared machine moved too much from run to run to gate on).
const (
	nominalRate  = 200.0
	overloadRate = 900.0
	hotShare     = 0.5
	hotPool      = 32
	// latencyLimit is the per-request limit goodput counts against.
	latencyLimit = 50 * time.Millisecond
	// gateFresh is how many of the first fresh rows served are checked
	// bit-for-bit against in-process Predict, besides every hot row.
	gateFresh = 96
	// fitReps and predictReps are how many times fit_s and predict_s are
	// measured; each is the lower quartile. Both calls take about 0.15 s,
	// and single calls that short vary by ±30% on a shared machine.
	fitReps     = 11
	predictReps = 15
	// tailWindows is how many consecutive windows the nominal phase's
	// latencies are cut into; the tail is the median of their tails.
	tailWindows = 3
	// warmFresh fresh rows are sent during warm-up, with every hot row.
	warmFresh = 16
	modelName = "m"
)

// serveOptions is the served model: m=32, d=1, γ=0.5 with a conformal
// calibration split, trained on 160 rows.
var serveOptions = core.Options{Features: 32, Distance: 1, Gamma: 0.5, CalibFrac: 0.2, Procs: 1}

// serveSample is the balanced row count drawn for training (80%) and the
// held-out rows the hot pool comes from (20%).
const serveSample = 200

// batchConfig is the micro-batching configuration the registry serves with.
// The queue is kept short enough that a full queue drains within the
// latency limit, so overload is shed with 429s rather than served late.
var batchConfig = serve.Config{MaxBatch: 8, MaxWait: 2 * time.Millisecond, QueueDepth: 8}

// serveData is the generated input: training rows, the held-out rows (the
// first hotPool of which form the hot pool) and a stream of fresh rows no
// other set contains.
type serveData struct {
	train, test *dataset.Dataset
	fresh       [][]float64
}

func makeServeData(seed int64) (serveData, error) {
	full, sc, err := population(serveOptions.Features)
	if err != nil {
		return serveData{}, err
	}
	var d serveData
	var drawn *dataset.Dataset
	if d.train, d.test, drawn, err = drawSplit(full, sc, serveSample, seed); err != nil {
		return d, fmt.Errorf("drawing rows: %w", err)
	}
	all, err := sc.Transform(full)
	if err != nil {
		return d, err
	}
	used := map[statecache.Key]bool{}
	for _, row := range drawn.X {
		used[statecache.KeyFor("", row)] = true
	}
	// The fresh stream is the rest of the population in an order drawn
	// from the seed.
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(full.X)) {
		if !used[statecache.KeyFor("", full.X[i])] {
			d.fresh = append(d.fresh, all.X[i])
		}
	}
	if len(d.test.X) < hotPool {
		return d, fmt.Errorf("only %d held-out rows for a hot pool of %d", len(d.test.X), hotPool)
	}
	return d, nil
}

// server is one set-up's trained, saved and reloaded model behind the
// router.
type server struct {
	reg     *registry.Registry
	handler http.Handler
	path    string
	save    time.Duration
	load    time.Duration
	sizeMiB float64
}

func startServer(d serveData, dir string) (*server, error) {
	fw, err := core.New(serveOptions)
	if err != nil {
		return nil, err
	}
	s := &server{path: filepath.Join(dir, "model.bin")}
	model, _, err := fw.Fit(d.train.X, d.train.Y)
	if err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}
	t0 := time.Now()
	if err := model.Save(s.path); err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	s.save = time.Since(t0)
	fi, err := os.Stat(s.path)
	if err != nil {
		return nil, err
	}
	s.sizeMiB = float64(fi.Size()) / (1 << 20)
	t0 = time.Now()
	s.reg, err = registry.Open([]registry.Spec{{Name: modelName, Path: s.path}}, registry.Config{Batch: batchConfig})
	s.load = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	s.handler = httpapi.NewRouter(s.reg, httpapi.Config{}).Handler()
	return s, nil
}

// request is one prepared open-loop request.
type request struct {
	arrival
	body []byte
	// gateIdx indexes the row in the gate sample (-1 when unchecked).
	gateIdx int
}

// phase is one open-loop run over a schedule.
type phase struct {
	name     string
	dur      time.Duration
	reqs     []request
	outs     []outcome
	scores   []float64
	late     []float64 // ms
	handlerM []float64 // ms the call itself took, from when it was made
}

// buildPhase draws a schedule and attaches rows: hot rows from the pool,
// fresh rows from the stream starting at *freshNext.
func buildPhase(name string, seed int64, rate float64, dur time.Duration, d serveData, freshNext *int, gate map[int]int) (*phase, error) {
	sched := poissonSchedule(seed, rate, dur, hotShare, hotPool)
	p := &phase{name: name, dur: dur}
	fresh := 0
	for _, a := range sched {
		rq := request{arrival: a, gateIdx: -1}
		var row []float64
		if a.Hot {
			row = d.test.X[a.Row]
			rq.gateIdx = a.Row
		} else {
			idx := *freshNext + a.Row
			if idx >= len(d.fresh) {
				return nil, fmt.Errorf("fresh row stream exhausted at %d", idx)
			}
			row = d.fresh[idx]
			if g, ok := gate[idx]; ok {
				rq.gateIdx = g
			}
			fresh++
		}
		body, err := json.Marshal(httpapi.PredictRequest{Rows: [][]float64{row}})
		if err != nil {
			return nil, err
		}
		rq.body = body
		p.reqs = append(p.reqs, rq)
	}
	*freshNext += fresh
	return p, nil
}

// buildPhases prepares a run's two phases: nominal for two thirds of the
// run, overload for the rest, the nominal one carrying the gate's fresh
// rows. It returns the gate sample with them.
func buildPhases(r run, d serveData) (nominal, overload *phase, gateRows [][]float64, err error) {
	nomDur := r.seconds * 2 / 3
	freshNext := 0
	gateRows, gateIdx := gateSample(d)
	if nominal, err = buildPhase("nominal", r.seed, nominalRate, nomDur, d, &freshNext, gateIdx); err != nil {
		return nil, nil, nil, err
	}
	if overload, err = buildPhase("overload", r.seed+1, overloadRate, r.seconds-nomDur, d, &freshNext, nil); err != nil {
		return nil, nil, nil, err
	}
	return nominal, overload, gateRows, nil
}

// call sends one request through the router handler and returns the status
// and the row's score.
func call(h http.Handler, body []byte) (int, float64) {
	req := httptest.NewRequest(http.MethodPost, "/v1/models/"+modelName+"/predict", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec.Code, math.NaN()
	}
	var resp httpapi.PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Scores) != 1 {
		return 0, math.NaN()
	}
	return rec.Code, resp.Scores[0]
}

// run plays the phase open loop: each request is started at its due time
// whatever the state of earlier ones, and timed from its due time. send
// makes the call for request i. Lateness of the generator itself is
// recorded, never absorbed by moving the schedule.
func (p *phase) run(send func(i int, body []byte) (int, float64)) {
	p.outs = make([]outcome, len(p.reqs))
	p.scores = make([]float64, len(p.reqs))
	p.late = make([]float64, len(p.reqs))
	p.handlerM = make([]float64, len(p.reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range p.reqs {
		due := start.Add(p.reqs[i].Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		p.late[i] = float64(sent.Sub(due)) / 1e6
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, score := send(i, p.reqs[i].body)
			now := time.Now()
			p.outs[i] = outcome{Status: code, Latency: now.Sub(due)}
			p.scores[i] = score
			p.handlerM[i] = float64(now.Sub(sent)) / 1e6
		}(i)
	}
	wg.Wait()
}

// check marks each 200 correct when its score matches the gate reference
// bit-for-bit (or, for rows outside the gate sample, is finite), and
// returns the number of gate comparisons made.
func (p *phase) check(expect []float64) int {
	checked := 0
	for i, rq := range p.reqs {
		o := &p.outs[i]
		if o.Status != http.StatusOK {
			continue
		}
		if rq.gateIdx >= 0 {
			checked++
			o.Correct = p.scores[i] == expect[rq.gateIdx]
			if !o.Correct {
				fmt.Printf("  gate: %s request %d scored %.17g, in-process %.17g\n", p.name, i, p.scores[i], expect[rq.gateIdx])
			}
		} else {
			o.Correct = !math.IsNaN(p.scores[i]) && !math.IsInf(p.scores[i], 0)
		}
	}
	return checked
}

// latencies returns request latencies in ms; requests that were refused or
// failed miss every limit and count as the whole phase length.
func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.outs))
	for i, o := range p.outs {
		if o.Status == http.StatusOK && o.Correct {
			out[i] = float64(o.Latency) / 1e6
		} else {
			out[i] = float64(p.dur) / 1e6
		}
	}
	return out
}

func (p *phase) print() {
	c := countOutcomes(p.outs, latencyLimit)
	fmt.Printf("phase %-9s %5d attempted, %5d succeeded, %4d refused (429), %d failed, %5d within %v; latency %s; generator late %s\n",
		p.name, c.Attempted, c.Succeeded, c.Refused, c.Failed, c.WithinLimit, latencyLimit, summarize(p.latencies()), summarize(p.late))
}

// gateSample is the rows checked bit-for-bit: the hot pool, then the first
// gateFresh rows of the fresh stream, which the first phase serves. The map
// takes a fresh-stream index to its place in the sample.
func gateSample(d serveData) ([][]float64, map[int]int) {
	rows := append([][]float64(nil), d.test.X[:hotPool]...)
	idx := map[int]int{}
	for i := 0; i < gateFresh; i++ {
		idx[i] = len(rows)
		rows = append(rows, d.fresh[i])
	}
	return rows, idx
}

// timeFit times one Fit of the served model's training rows on a fresh
// framework.
func timeFit(d serveData) (time.Duration, error) {
	fw, err := core.New(serveOptions)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	t0 := time.Now()
	_, _, err = fw.Fit(d.train.X, d.train.Y)
	return time.Since(t0), err
}

// inProcess scores the gate sample with Framework.Predict on a freshly
// loaded copy of the model (cold state cache) and returns the scores and
// the time Predict took.
func inProcess(path string, rows [][]float64) ([]float64, time.Duration, error) {
	fw, model, err := core.LoadModel(path)
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	t0 := time.Now()
	scores, err := fw.Predict(model, rows)
	return scores, time.Since(t0), err
}

func serveOpen(r run) (report, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return report{}, err
	}
	dir, err := os.MkdirTemp(".bench_build", "serve-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)

	var d serveData
	var srv *server
	var setups, saves, loads []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if d, err = makeServeData(r.seed); err != nil {
			return report{}, err
		}
		if srv != nil {
			srv.reg.Close()
		}
		if srv, err = startServer(d, dir); err != nil {
			return report{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		saves = append(saves, srv.save.Seconds())
		loads = append(loads, srv.load.Seconds())
	}
	defer srv.reg.Close()
	fmt.Printf("set-up: trained on %d rows, saved %.3f MiB, loaded through the registry; set-up %.3fs (median of %d)\n",
		d.train.Len(), srv.sizeMiB, median(setups), setupReps)

	// Warm-up, excluded from every measurement: each hot row once, then a
	// few fresh rows from the end of the stream.
	for i := 0; i < hotPool; i++ {
		body, _ := json.Marshal(httpapi.PredictRequest{Rows: [][]float64{d.test.X[i]}})
		if code, _ := call(srv.handler, body); code != http.StatusOK {
			return report{}, fmt.Errorf("warm-up request answered %d", code)
		}
	}
	for i := len(d.fresh) - warmFresh; i < len(d.fresh); i++ {
		body, _ := json.Marshal(httpapi.PredictRequest{Rows: [][]float64{d.fresh[i]}})
		if code, _ := call(srv.handler, body); code != http.StatusOK {
			return report{}, fmt.Errorf("warm-up request answered %d", code)
		}
	}

	if r.traced {
		return serveTraced(r, d, srv, median(saves), median(loads))
	}

	nominal, overload, gateRows, err := buildPhases(r, d)
	if err != nil {
		return report{}, err
	}
	var fits []float64
	for i := 0; i < fitReps; i++ {
		took, err := timeFit(d)
		if err != nil {
			return report{}, err
		}
		fits = append(fits, took.Seconds())
	}
	var expect []float64
	var preds []float64
	for i := 0; i < predictReps; i++ {
		var took time.Duration
		if expect, took, err = inProcess(srv.path, gateRows); err != nil {
			return report{}, fmt.Errorf("in-process predict: %w", err)
		}
		preds = append(preds, took.Seconds())
	}
	send := func(_ int, body []byte) (int, float64) { return call(srv.handler, body) }
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	nominal.run(send)
	overload.run(send)
	runtime.ReadMemStats(&ms)
	requests := len(nominal.reqs) + len(overload.reqs)
	allocMiB := float64(ms.TotalAlloc-alloc0) / (1 << 20) / float64(requests)

	rep := report{metrics: map[string]float64{}}
	rep.attempted = requests + nominal.check(expect) + overload.check(expect)
	for _, p := range []*phase{nominal, overload} {
		p.print()
		rep.failed += countOutcomes(p.outs, latencyLimit).Failed
	}
	if auc, err := svm.AUC(expect[:hotPool], d.test.Y[:hotPool]); err == nil {
		fmt.Printf("hot-pool AUC of the served model: %.4f\n", auc)
	}
	lat := nominal.latencies()
	tail, tailP, tails := windowedTail(lat, tailWindows)
	fmt.Printf("nominal tail: median over %d windows of each window's p%g = %.3f ms (windows %.3f ms, n=%d each)\n", tailWindows, tailP, tail, tails, len(lat)/tailWindows)
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["alloc_mib"] = allocMiB
	rep.metrics["latency_p50_ms"] = percentile(lat, 50)
	rep.metrics["goodput_rps"] = goodput(overload.outs, latencyLimit, overload.dur)
	rep.ungated = map[string]float64{
		"fit_s":           lowerQuartile(fits),
		"predict_s":       lowerQuartile(preds),
		"latency_tail_ms": tail,
	}
	return rep, nil
}

// serveTraced plays the nominal schedule with requests dealt in turn to
// three paths — the router untraced, the router with a span per call, and
// registry.PredictFullCtx directly with a span — so the tracing overhead and
// the router's own time are differences measured over the same period; then
// the overload schedule through the router with spans. Per-layer metrics
// come from the spans, the registry's serve.Stats deltas and the set-up
// timings.
func serveTraced(r run, d serveData, srv *server, saveS, loadS float64) (report, error) {
	tr := newTracer(fmt.Sprintf("%s-seed%d", r.workload, r.seed))
	nominal, overload, gateRows, err := buildPhases(r, d)
	if err != nil {
		return report{}, err
	}
	traced := func(name string, send func([]byte) (int, float64)) func([]byte) (int, float64) {
		return func(body []byte) (int, float64) {
			sp := tr.start(name, -1)
			defer tr.end(sp)
			return send(body)
		}
	}
	viaRouter := func(body []byte) (int, float64) { return call(srv.handler, body) }
	viaRegistry := func(body []byte) (int, float64) {
		var req httpapi.PredictRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return 0, math.NaN()
		}
		scores, _, err := srv.reg.PredictFullCtx(context.Background(), modelName, req.Rows)
		if err != nil || len(scores) != 1 {
			return http.StatusInternalServerError, math.NaN()
		}
		return http.StatusOK, scores[0]
	}
	paths := []func([]byte) (int, float64){viaRouter, traced("http.request", viaRouter), traced("registry.predict", viaRegistry)}
	tracedRouter := paths[1]

	before := srv.reg.Stats()[modelName]
	nominal.run(func(i int, body []byte) (int, float64) { return paths[i%len(paths)](body) })
	overload.run(func(_ int, body []byte) (int, float64) { return tracedRouter(body) })
	after := srv.reg.Stats()[modelName]

	expect, _, err := inProcess(srv.path, gateRows)
	if err != nil {
		return report{}, fmt.Errorf("in-process predict: %w", err)
	}
	phases := []*phase{nominal, overload}
	rep := report{metrics: map[string]float64{}}
	var late []float64
	hot, total := 0, 0
	for _, p := range phases {
		rep.attempted += len(p.reqs) + p.check(expect)
		rep.failed += countOutcomes(p.outs, latencyLimit).Failed
		late = append(late, p.late...)
		for _, rq := range p.reqs {
			total++
			if rq.Hot {
				hot++
			}
		}
		p.print()
	}
	m := rep.metrics
	// Call times of the nominal requests on each path, from when each was
	// sent (so generator lateness is left out).
	var callMs [3][]float64
	for i, ms := range nominal.handlerM {
		callMs[i%len(paths)] = append(callMs[i%len(paths)], ms)
	}
	untraced, router, registry := percentile(callMs[0], 50), percentile(callMs[1], 50), percentile(callMs[2], 50)
	fmt.Printf("nominal call p50: router untraced %.3f ms, router traced %.3f ms, registry traced %.3f ms (n=%d each)\n", untraced, router, registry, len(callMs[0]))
	m["trace.overhead_frac"] = router/untraced - 1
	m["http.request_ms_p50"] = router
	m["http.overhead_ms_p50"] = router - registry
	m["gen.late_ms_p99"] = percentile(late, 99)
	m["persist.save_s"] = saveS
	m["persist.load_s"] = loadS
	m["persist.model_mib"] = srv.sizeMiB

	batches := after.Batches - before.Batches
	rows := after.Rows - before.Rows
	m["serve.batches"] = float64(batches)
	m["serve.rows_per_batch"] = float64(rows) / float64(max(batches, 1))
	m["serve.queue_wait_ms_p50"] = histQuantile(before.QueueWaitSeconds, after.QueueWaitSeconds, 0.5) * 1e3
	m["serve.queue_wait_ms_p99"] = histQuantile(before.QueueWaitSeconds, after.QueueWaitSeconds, 0.99) * 1e3
	m["serve.predict_s"] = (after.PredictWall - before.PredictWall).Seconds()
	m["serve.rejected"] = float64(after.Rejected - before.Rejected)

	cb, ca := before.Cache, after.Cache
	hits, misses := ca.Hits-cb.Hits, ca.Misses-cb.Misses
	m["statecache.hits"] = float64(hits)
	m["statecache.misses"] = float64(misses)
	m["statecache.hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	m["statecache.compute_s"] = (ca.ComputeWall - cb.ComputeWall).Seconds()
	m["statecache.wait_s"] = (ca.WaitWall - cb.WaitWall).Seconds()
	m["statecache.evictions"] = float64(ca.Evictions - cb.Evictions)
	m["share.hot_rows"] = float64(hot) / float64(total)

	// The served framework runs on the default backend, out of reach of the
	// timed one: simulation time is the cache's compute time, linalg stays 0.
	// χ and truncation error are those of the model's training states.
	m["mps.states"] = float64(misses)
	m["mps.self_s"] = m["statecache.compute_s"]
	m["mps.state_ms_max"] = float64(after.RowCosts.Max) / 1e6
	if inst, err := srv.reg.Get(modelName); err == nil {
		model := inst.Batcher.Model()
		m["kernel.overlaps"] = float64(rows) * float64(len(model.TrainX))
		chiMin, truncMax := math.MaxInt, 0.0
		for _, st := range model.States {
			chiMin = min(chiMin, st.MaxBond())
			truncMax = math.Max(truncMax, st.TruncationError)
		}
		m["mps.max_chi"] = float64(model.MaxBond())
		m["mps.row_chi_min"] = float64(chiMin)
		m["mps.trunc_err_max"] = truncMax
		m["svm.support_vectors"] = float64(len(model.SVM.SupportVectors()))
	}
	m["dist.messages"] = float64(after.Comm.Messages - before.Comm.Messages)
	m["dist.bytes"] = float64(after.Comm.Bytes - before.Comm.Bytes)
	m["dist.comm_s"] = (after.Comm.CommWall - before.Comm.CommWall).Seconds()
	m["dist.recovered_rows"] = float64(after.Comm.RecoveredRows - before.Comm.RecoveredRows)
	if auc, err := svm.AUC(expect[:hotPool], d.test.Y[:hotPool]); err == nil {
		m["svm.test_auc"] = auc
	}

	printSelfTimes(tr)
	predictShare("state-cache hit ratio against the hot-row share", m["statecache.hit_ratio"], m["share.hot_rows"], 0.05)
	path, err := tr.write(".bench_build/traces", tr.run+".json")
	if err != nil {
		return rep, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	return rep, nil
}

// histQuantile estimates quantile q of the observations made between two
// snapshots of a cumulative histogram, as the upper bound of the bucket
// holding it (the last finite bound when it lies beyond every bucket).
func histQuantile(before, after obs.HistogramSnapshot, q float64) float64 {
	n := after.Count - before.Count
	if n == 0 || len(after.Bounds) == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(n)))
	for i, b := range after.Bounds {
		c := after.Counts[i]
		if i < len(before.Counts) {
			c -= before.Counts[i]
		}
		if c >= want {
			return b
		}
	}
	return after.Bounds[len(after.Bounds)-1]
}
