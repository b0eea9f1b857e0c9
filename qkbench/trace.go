package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/linalg"
)

// span is one timed call recorded by the benchmark around a call into a
// module. Times are offsets from the tracer's start.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Name   string        `json:"name"`
	Run    string        `json:"run"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   string
	spans []span
}

func newTracer(run string) *tracer { return &tracer{t0: time.Now(), run: run} }

// start opens a span under parent and returns its id (-1 when t is nil).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Run: t.run, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover (overlapping children are merged first).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// totals sums span durations per name.
func totals(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.End >= 0 {
			out[s.Name] += s.End - s.Start
		}
	}
	return out
}

// write saves the spans as JSON under dir and returns the file's path.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}

// timedBackend wraps a backend.Backend and counts, with wall-clock, the SVD
// and matrix-product calls the MPS simulator makes through it. Name is the
// wrapped backend's, so the kernel fingerprint and every code path that
// branches on the backend are unchanged.
type timedBackend struct {
	inner                   backend.Backend
	svdCalls, svdNanos      atomic.Int64
	matmulCalls, matmulNano atomic.Int64
}

func (b *timedBackend) svd(t0 time.Time) {
	b.svdCalls.Add(1)
	b.svdNanos.Add(time.Since(t0).Nanoseconds())
}

func (b *timedBackend) matmul(t0 time.Time) {
	b.matmulCalls.Add(1)
	b.matmulNano.Add(time.Since(t0).Nanoseconds())
}

func (b *timedBackend) Name() string { return b.inner.Name() }

func (b *timedBackend) MatMul(x, y *linalg.Matrix) *linalg.Matrix {
	defer b.matmul(time.Now())
	return b.inner.MatMul(x, y)
}

func (b *timedBackend) MatMulInto(dst, x, y *linalg.Matrix) *linalg.Matrix {
	defer b.matmul(time.Now())
	return b.inner.MatMulInto(dst, x, y)
}

func (b *timedBackend) MatMulBatchInto(ops []linalg.MatMulOp) {
	defer b.matmul(time.Now())
	b.inner.MatMulBatchInto(ops)
}

func (b *timedBackend) SVD(m *linalg.Matrix) linalg.SVDResult {
	defer b.svd(time.Now())
	return b.inner.SVD(m)
}

func (b *timedBackend) SVDTrunc(ws *linalg.Workspace, m *linalg.Matrix) linalg.SVDResult {
	defer b.svd(time.Now())
	return b.inner.SVDTrunc(ws, m)
}

func (b *timedBackend) SVDTruncLazy(ws *linalg.Workspace, m *linalg.Matrix) linalg.TruncSVD {
	defer b.svd(time.Now())
	return b.inner.SVDTruncLazy(ws, m)
}

func (b *timedBackend) QR(m *linalg.Matrix) (*linalg.Matrix, *linalg.Matrix) { return b.inner.QR(m) }

func (b *timedBackend) Stats() *backend.Stats { return b.inner.Stats() }
