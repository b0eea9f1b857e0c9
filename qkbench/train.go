package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/kernel"
	"repro/internal/mps"
	"repro/internal/statecache"
	"repro/internal/svm"
)

// trainShape fixes one training workload.
type trainShape struct {
	features, distance int
	gamma, c           float64
	// pool is the balanced row count drawn once per run (drawSplit), 80%
	// kept as the training pool and 20% as the held-out pool.
	// Each cycle trains on the next nTrain rows of the one and scores the
	// next nTest of the other, so a run averages over many distinct rows:
	// a row's cost depends on its χ, which varies from row to row.
	pool          int
	nTrain, nTest int
	procs         int
	// refRows is the size of the Gram sub-block checked against the
	// reference kernels.
	refRows int
	// singleRows of each cycle's held-out rows are also scored one row per
	// Predict call, as a user of the trained model would ask for them. These
	// are the latency samples: a cycle gives one Fit but many rows.
	singleRows int
}

// simShape is the Fig. 5 configuration: interaction distance 3 at γ = 1
// drives per-row χ to about 15–50, so the gate engine and the truncated SVD
// do most of the work.
var simShape = trainShape{features: 24, distance: 3, gamma: 1.0, c: 1, pool: 1000, nTrain: 16, nTest: 8, procs: 1, refRows: 4, singleRows: 8}

// gramShape is the Fig. 8 / Figs. 9–10 configuration: χ ≤ 4, so the O(N²)
// overlap fill dominates, over two round-robin ranks with the C sweep. The
// row count is scaled down from 600 / 150 so several cold cycles fit in one
// run.
var gramShape = trainShape{features: 64, distance: 1, gamma: 0.5, c: 0, pool: 6000, nTrain: 400, nTest: 100, procs: 2, refRows: 8, singleRows: 40}

func trainSim(r run) (report, error)  { return trainWorkload(r, simShape) }
func trainGram(r run) (report, error) { return trainWorkload(r, gramShape) }

func (s trainShape) options() core.Options {
	return core.Options{Features: s.features, Distance: s.distance, Gamma: s.gamma, C: s.c, Procs: s.procs}
}

func (s trainShape) ansatz() circuit.Ansatz {
	o := s.options()
	return circuit.Ansatz{Qubits: o.Features, Layers: 2, Distance: o.Distance, Gamma: o.Gamma}
}

// trainData is one workload's row pools plus the reference Gram sub-block
// of the first draw.
type trainData struct {
	train, test *dataset.Dataset
	ref         *refBlock
}

// refBlock is a reference Gram block with the truncation error (discarded
// weight) of each reference state.
type refBlock struct {
	k        [][]float64
	truncErr []float64
}

// draw is the rows of one cycle.
type draw struct {
	trainX, testX [][]float64
	trainY, testY []int
}

// draw returns cycle i's rows: the next nTrain/2 rows of each class from
// the training pool and the next nTest/2 of each from the held-out pool,
// alternating classes, wrapping around once a pool is used up.
func (s trainShape) draw(d trainData, i int) draw {
	var dr draw
	dr.trainX, dr.trainY = balancedSlice(d.train, i, s.nTrain)
	dr.testX, dr.testY = balancedSlice(d.test, i, s.nTest)
	return dr
}

func balancedSlice(ds *dataset.Dataset, i, n int) ([][]float64, []int) {
	var byClass [2][]int
	for j, y := range ds.Y {
		if y == 1 {
			byClass[0] = append(byClass[0], j)
		} else {
			byClass[1] = append(byClass[1], j)
		}
	}
	var x [][]float64
	var y []int
	for k := 0; k < n/2; k++ {
		for _, idx := range byClass {
			j := idx[(i*n/2+k)%len(idx)]
			x, y = append(x, ds.X[j]), append(y, ds.Y[j])
		}
	}
	return x, y
}

// prepare generates the population and draws the workload's pools from
// it. This is the workload's set-up.
func (s trainShape) prepare(seed int64) (trainData, error) {
	full, sc, err := population(s.features)
	if err != nil {
		return trainData{}, err
	}
	tr, te, _, err := drawSplit(full, sc, s.pool, seed)
	if err != nil {
		return trainData{}, fmt.Errorf("drawing rows: %w", err)
	}
	return trainData{train: tr, test: te}, nil
}

// reference computes the Gram block of the first cycle's first refRows
// training rows with the reference kernels on the serial backend. It runs
// once, after set-up and outside every timed phase.
func (s trainShape) reference(d *trainData) error {
	ref := &kernel.Quantum{Ansatz: s.ansatz(), Config: mps.Config{ReferenceKernels: true}}
	states, err := ref.States(s.draw(*d, 0).trainX[:s.refRows])
	if err != nil {
		return fmt.Errorf("reference states: %w", err)
	}
	d.ref = &refBlock{k: kernel.GramFromStates(states, 1)}
	for _, st := range states {
		d.ref.truncErr = append(d.ref.truncErr, st.TruncationError)
	}
	return nil
}

// setupReps is how many times each workload repeats its set-up; setup_s is
// the median.
const setupReps = 5

// cycle is one cold Fit + Predict.
type cycle struct {
	fit, predict time.Duration
	rowLat       []time.Duration
	scores       []float64
	auc          float64
	checked      int
	failed       int
}

// runCycle trains a fresh framework on a draw and scores its held-out rows
// in one batch, then checks the Fit's first Gram sub-block (see checkGram).
// Then a second fresh framework (cold state cache, same trained model)
// scores the first singleRows held-out rows one per call; each score must
// equal the batch score bit for bit.
func (s trainShape) runCycle(d draw, ref *refBlock) (cycle, error) {
	var c cycle
	fw, err := core.New(s.options())
	if err != nil {
		return c, err
	}
	t0 := time.Now()
	model, _, err := fw.Fit(d.trainX, d.trainY)
	c.fit = time.Since(t0)
	if err != nil {
		return c, fmt.Errorf("fit: %w", err)
	}
	t0 = time.Now()
	c.scores, err = fw.Predict(model, d.testX)
	c.predict = time.Since(t0)
	if err != nil {
		return c, fmt.Errorf("predict: %w", err)
	}
	c.checked += 2
	if len(model.States) < s.refRows {
		fmt.Printf("  gate: the model retained %d training states, fewer than %d\n", len(model.States), s.refRows)
		c.failed++
	} else if err := checkGram(model.States[:s.refRows], ref); err != nil {
		fmt.Printf("  gate: %v\n", err)
		c.failed++
	}
	if c.auc, err = svm.AUC(c.scores, d.testY); err != nil {
		fmt.Printf("  gate: held-out scores: %v\n", err)
		c.failed++
	}

	single, err := core.New(s.options())
	if err != nil {
		return c, err
	}
	for i := 0; i < s.singleRows; i++ {
		t0 := time.Now()
		sc, err := single.Predict(model, d.testX[i:i+1])
		c.rowLat = append(c.rowLat, time.Since(t0))
		c.checked++
		if err != nil || sc[0] != c.scores[i] {
			fmt.Printf("  gate: row %d scored alone gives %v (%v), in the batch %.17g\n", i, sc, err, c.scores[i])
			c.failed++
		}
	}
	return c, nil
}

// checkGram checks the Gram block of a Fit's training states: symmetric,
// with a unit diagonal within 1e-10, and, when ref is not nil, equal to the
// reference block. Two simulations that each truncate agree only up to their
// truncation errors ε (discarded weight, so each state is within √ε of the
// exact one): entry (i, j) may differ by 2(√εᵢ + √εⱼ) per simulation. The
// check allows 1e-10 plus that bound, and reports how many entries differ by
// more than 1e-10 alone.
func checkGram(states []*mps.MPS, ref *refBlock) error {
	const tol = 1e-10
	got := kernel.GramFromStates(states, 1)
	beyond, worst := 0, 0.0
	for i := range got {
		if math.Abs(got[i][i]-1) > tol {
			return fmt.Errorf("diagonal K[%d][%d] = %.17g, want 1", i, i, got[i][i])
		}
		for j := range got {
			if got[i][j] != got[j][i] {
				return fmt.Errorf("K[%d][%d] = %.17g but K[%d][%d] = %.17g", i, j, got[i][j], j, i, got[j][i])
			}
			if ref == nil {
				continue
			}
			diff := math.Abs(got[i][j] - ref.k[i][j])
			bound := 2 * (math.Sqrt(states[i].TruncationError) + math.Sqrt(states[j].TruncationError) +
				math.Sqrt(ref.truncErr[i]) + math.Sqrt(ref.truncErr[j]))
			if diff > tol+bound {
				return fmt.Errorf("K[%d][%d] = %.17g, reference %.17g: differs by %.3g, beyond 1e-10 + %.3g from truncation", i, j, got[i][j], ref.k[i][j], diff, bound)
			}
			if diff > tol {
				beyond++
			}
			worst = math.Max(worst, diff)
		}
	}
	if ref != nil {
		fmt.Printf("gate: Gram block of %d rows matches the reference kernels; largest |ΔK| %.3g, %d entries beyond 1e-10 (within their truncation bound)\n", len(got), worst, beyond)
	}
	return nil
}

func trainWorkload(r run, s trainShape) (report, error) {
	var d trainData
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if d, err = s.prepare(r.seed); err != nil {
			return report{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Printf("set-up: pools of %d train / %d held-out rows, %d / %d per cycle, m=%d d=%d γ=%g procs=%d; set-up %.3fs (median of %d)\n",
		d.train.Len(), d.test.Len(), s.nTrain, s.nTest, s.features, s.distance, s.gamma, s.procs, median(setups), setupReps)
	t0 := time.Now()
	if err := s.reference(&d); err != nil {
		return report{}, err
	}
	fmt.Printf("reference Gram block of %d rows: %.3fs (untimed)\n", s.refRows, time.Since(t0).Seconds())
	if r.traced {
		return s.tracedRun(r, d)
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	var cycles []cycle
	var walls []float64
	for i := 0; ; i++ {
		// Start each cycle on a collected heap, so no cycle pays for the
		// garbage of the one before.
		runtime.GC()
		t0 := time.Now()
		c, err := s.runCycle(s.draw(d, i), refFor(d, i))
		if err != nil {
			return report{}, err
		}
		cycles = append(cycles, c)
		walls = append(walls, time.Since(t0).Seconds())
		// Stop before a cycle that would overrun the measurement time.
		if time.Since(start).Seconds()+median(walls) > r.seconds.Seconds() {
			break
		}
	}
	runtime.ReadMemStats(&ms)
	allocMiB := float64(ms.TotalAlloc-alloc0) / (1 << 20) / float64(len(cycles))

	rep := report{metrics: map[string]float64{}}
	var fits, preds, lat, aucs []float64
	for _, c := range cycles {
		fits = append(fits, c.fit.Seconds())
		preds = append(preds, c.predict.Seconds())
		for _, l := range c.rowLat {
			lat = append(lat, float64(l)/1e6)
		}
		aucs = append(aucs, c.auc)
		rep.attempted += c.checked
		rep.failed += c.failed
	}
	ls := summarize(lat)
	fmt.Printf("measured %d cycles in %.1fs: fit %.3fs, predict %.3fs (lower quartiles); held-out AUC %.4f (median)\n",
		len(cycles), time.Since(start).Seconds(), lowerQuartile(fits), lowerQuartile(preds), median(aucs))
	fmt.Printf("single-row predict latency: %s\n", ls)
	fmt.Printf("fit per cycle (s): %.3f\n", fits)
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["alloc_mib"] = allocMiB
	rep.metrics["latency_p50_ms"] = ls.P50
	rep.metrics["goodput_rps"] = float64(s.nTest) / lowerQuartile(preds)
	rep.ungated = map[string]float64{
		"fit_s":           lowerQuartile(fits),
		"predict_s":       lowerQuartile(preds),
		"latency_tail_ms": ls.Tail,
	}
	return rep, nil
}

// refFor is the reference block cycle i is checked against: only the first
// cycle's rows have one.
func refFor(d trainData, i int) *refBlock {
	if i == 0 {
		return d.ref
	}
	return nil
}

// layerTally accumulates what the traced cycles observed: the timed
// backend, every distributed result, the state caches and the Gram phases.
type layerTally struct {
	be                          *timedBackend
	results                     []*dist.Result
	trainStates                 []*mps.MPS
	caches                      []*statecache.Cache
	fitWall, gramSim, gramInner time.Duration
	gramBusyMax, gramBusyMean   time.Duration
	supportVectors              int
}

// tracedCycle is runCycle composed from the modules' public functions, so
// each call can be spanned and the simulator can run on a timed backend. It
// must reproduce core.Framework exactly: the scores are compared bit-for-bit
// with an untraced cycle.
func (s trainShape) tracedCycle(d draw, tr *tracer, tally *layerTally) ([]float64, error) {
	q := &kernel.Quantum{Ansatz: s.ansatz(), Config: mps.Config{Backend: tally.be}, Cache: statecache.New(core.DefaultCacheBytes)}
	tally.caches = append(tally.caches, q.Cache)
	opts := dist.Options{Procs: s.procs}
	cyc := tr.start("cycle", -1)
	defer tr.end(cyc)

	fit := tr.start("core.fit", cyc)
	t0 := time.Now()
	sp := tr.start("dist.gram", fit)
	res, err := dist.ComputeGram(q, d.trainX, opts)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("gram: %w", err)
	}
	sp = tr.start("svm.train", fit)
	model, err := trainSVM(res.Gram, d.trainY, s.c)
	tr.end(sp)
	tr.end(fit)
	tally.fitWall += time.Since(t0)
	if err != nil {
		return nil, err
	}
	tally.results = append(tally.results, res)
	tally.trainStates = res.States
	tally.supportVectors = len(model.SupportVectors())
	sim, inner, _ := res.MaxPhaseTimes()
	tally.gramSim += sim
	tally.gramInner += inner
	var busy time.Duration
	var busyMax time.Duration
	for _, p := range res.Procs {
		b := p.SimTime + p.InnerTime + p.CommTime
		busy += b
		busyMax = max(busyMax, b)
	}
	tally.gramBusyMax += busyMax
	tally.gramBusyMean += busy / time.Duration(len(res.Procs))

	pred := tr.start("core.predict", cyc)
	sp = tr.start("dist.cross", pred)
	cres, err := dist.ComputeCrossStates(q, d.testX, res.States, opts)
	tr.end(sp)
	if err != nil {
		tr.end(pred)
		return nil, fmt.Errorf("cross: %w", err)
	}
	tally.results = append(tally.results, cres)
	sp = tr.start("svm.decision", pred)
	scores, err := model.DecisionBatch(cres.Gram)
	tr.end(sp)
	tr.end(pred)
	return scores, err
}

// trainSVM is core.Framework's SVM step: a fixed C, or C chosen on every
// fifth row held out and the model retrained on all rows.
func trainSVM(gram [][]float64, y []int, c float64) (*svm.Model, error) {
	if c > 0 {
		return svm.Train(gram, y, c, 0)
	}
	var fitIdx, valIdx []int
	for i := range y {
		if i%5 == 4 {
			valIdx = append(valIdx, i)
		} else {
			fitIdx = append(fitIdx, i)
		}
	}
	pick := func(rows, cols []int) [][]float64 {
		out := make([][]float64, len(rows))
		for a, i := range rows {
			out[a] = make([]float64, len(cols))
			for b, j := range cols {
				out[a][b] = gram[i][j]
			}
		}
		return out
	}
	labels := func(idx []int) []int {
		out := make([]int, len(idx))
		for a, i := range idx {
			out[a] = y[i]
		}
		return out
	}
	_, _, best, err := svm.TrainBestC(pick(fitIdx, fitIdx), labels(fitIdx), pick(valIdx, fitIdx), labels(valIdx), nil, 0)
	if err != nil {
		return nil, fmt.Errorf("C selection: %w", err)
	}
	return svm.Train(gram, y, best, 0)
}

// tracedRun alternates untraced cycles (core.Framework, as in the
// end-to-end run) with traced ones until the measurement time is spent, and
// reports the per-layer metrics of the traced cycles as per-cycle averages.
func (s trainShape) tracedRun(r run, d trainData) (report, error) {
	tr := newTracer(fmt.Sprintf("%s-seed%d", r.workload, r.seed))
	tally := &layerTally{be: &timedBackend{inner: backend.NewSerial()}}
	rep := report{metrics: map[string]float64{}}
	var plain, traced, aucs []float64
	start := time.Now()
	for i := 0; len(traced) == 0 || time.Since(start).Seconds()+median(plain)+median(traced) <= r.seconds.Seconds(); i++ {
		dr := s.draw(d, i)
		runtime.GC()
		c, err := s.runCycle(dr, refFor(d, i))
		if err != nil {
			return rep, err
		}
		// The untraced cycle also scores rows one by one; the traced cycle
		// stops after the batch Predict, so compare Fit + Predict only.
		plain = append(plain, (c.fit + c.predict).Seconds())
		rep.attempted += c.checked
		rep.failed += c.failed
		aucs = append(aucs, c.auc)

		runtime.GC()
		t0 := time.Now()
		scores, err := s.tracedCycle(dr, tr, tally)
		traced = append(traced, time.Since(t0).Seconds())
		rep.attempted++
		if err != nil {
			fmt.Printf("  traced cycle: %v\n", err)
			rep.failed++
			continue
		}
		for i := range scores {
			if scores[i] != c.scores[i] {
				fmt.Printf("  traced score %d = %.17g, untraced %.17g\n", i, scores[i], c.scores[i])
				rep.failed++
				break
			}
		}
	}
	n := float64(len(traced))
	m := rep.metrics
	m["trace.overhead_frac"] = (median(traced) - median(plain)) / median(plain)
	m["svm.test_auc"] = median(aucs)
	m["svm.support_vectors"] = float64(tally.supportVectors)
	tot := totals(tr.spans)
	m["svm.train_s"] = tot["svm.train"].Seconds() / n

	m["linalg.svd_calls"] = float64(tally.be.svdCalls.Load()) / n
	m["linalg.svd_s"] = float64(tally.be.svdNanos.Load()) / 1e9 / n
	m["linalg.matmul_calls"] = float64(tally.be.matmulCalls.Load()) / n
	m["linalg.matmul_s"] = float64(tally.be.matmulNano.Load()) / 1e9 / n

	var rowMs []float64
	var rowTotal, simMax, innerMax, commMax, inner time.Duration
	var states, overlaps, msgs, recovered int
	var bytes int64
	for _, res := range tally.results {
		for _, c := range res.ObservedRowCosts {
			if c > 0 {
				rowMs = append(rowMs, float64(c)/1e6)
				rowTotal += c
			}
		}
		sim, in, comm := res.MaxPhaseTimes()
		simMax += sim
		innerMax += in
		commMax += comm
		for _, p := range res.Procs {
			states += p.StatesSimulated
			overlaps += p.InnerProducts
			inner += p.InnerTime
		}
		msgs += res.TotalMessages()
		bytes += res.TotalBytes()
		recovered += res.TotalRecoveredRows()
	}
	m["mps.states"] = float64(states) / n
	m["mps.state_ms_p50"] = median(rowMs)
	m["mps.state_ms_max"] = percentile(rowMs, 100)
	linalgS := float64(tally.be.svdNanos.Load()+tally.be.matmulNano.Load()) / 1e9
	m["mps.self_s"] = (rowTotal.Seconds() - linalgS) / n
	chiMin, chiMax, truncMax := math.MaxInt, 0, 0.0
	for _, st := range tally.trainStates {
		chiMin = min(chiMin, st.MaxBond())
		chiMax = max(chiMax, st.MaxBond())
		truncMax = math.Max(truncMax, st.TruncationError)
	}
	m["mps.max_chi"] = float64(chiMax)
	m["mps.row_chi_min"] = float64(chiMin)
	m["mps.trunc_err_max"] = truncMax
	m["kernel.overlaps"] = float64(overlaps) / n
	m["kernel.overlap_s"] = inner.Seconds() / n
	m["kernel.overlap_us_per_pair"] = inner.Seconds() * 1e6 / float64(overlaps)

	var cs statecache.Stats
	for _, c := range tally.caches {
		st := c.Stats()
		cs.Hits += st.Hits
		cs.Misses += st.Misses
		cs.Evictions += st.Evictions
		cs.ComputeWall += st.ComputeWall
		cs.WaitWall += st.WaitWall
	}
	m["statecache.hits"] = float64(cs.Hits) / n
	m["statecache.misses"] = float64(cs.Misses) / n
	m["statecache.hit_ratio"] = cs.HitRate()
	m["statecache.compute_s"] = cs.ComputeWall.Seconds() / n
	m["statecache.wait_s"] = cs.WaitWall.Seconds() / n
	m["statecache.evictions"] = float64(cs.Evictions) / n

	m["dist.sim_s"] = simMax.Seconds() / n
	m["dist.inner_s"] = innerMax.Seconds() / n
	m["dist.comm_s"] = commMax.Seconds() / n
	m["dist.messages"] = float64(msgs) / n
	m["dist.bytes"] = float64(bytes) / n
	m["dist.recovered_rows"] = float64(recovered) / n
	m["dist.rank_imbalance"] = tally.gramBusyMax.Seconds() / tally.gramBusyMean.Seconds()

	m["share.sim_of_fit"] = tally.gramSim.Seconds() / tally.fitWall.Seconds()
	m["share.overlap_of_fit"] = tally.gramInner.Seconds() / tally.fitWall.Seconds()
	m["share.sim_plus_overlap_of_fit"] = (tally.gramSim + tally.gramInner).Seconds() / tally.fitWall.Seconds()

	fmt.Printf("traced %d cycles, untraced %d: Fit + Predict %.3fs traced vs %.3fs untraced (medians)\n", len(traced), len(plain), median(traced), median(plain))
	printSelfTimes(tr)
	if r.workload == "train-sim" {
		predictShare("mps + linalg share of fit (gram simulation wall / fit wall)", m["share.sim_of_fit"], 0.85, 0.10)
	} else {
		predictShare("overlap share of fit (gram overlap wall / fit wall)", m["share.overlap_of_fit"], 0.85, 0.10)
	}
	fmt.Printf("per-row χ range over training rows: %d–%d\n", chiMin, chiMax)
	path, err := tr.write(".bench_build/traces", tr.run+".json")
	if err != nil {
		return rep, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	return rep, nil
}

// printSelfTimes prints each span name's total and self time.
func printSelfTimes(tr *tracer) {
	self, tot := selfTimes(tr.spans), totals(tr.spans)
	for _, name := range sortedKeys(tot) {
		fmt.Printf("  span %-16s total %9.3fs self %9.3fs\n", name, tot[name].Seconds(), self[name].Seconds())
	}
}

// predictShare reports a measured share against the prediction made for
// it, stating whether the prediction held within ±tol.
func predictShare(what string, got, want, tol float64) {
	verdict := "holds"
	if math.Abs(got-want) > tol {
		verdict = "FAILS"
	}
	fmt.Printf("prediction %s: predicted %.2f, found %.3f — %s\n", what, want, got, verdict)
}
