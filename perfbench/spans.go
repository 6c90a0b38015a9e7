package main

import (
	"math/bits"
	"time"

	"chrome/internal/cache"
	"chrome/internal/mem"
	"chrome/internal/objcache"
	"chrome/internal/prefetch"
	"chrome/internal/trace"
)

// The traced run wraps the calls the benchmark makes into each layer; no
// program source changes. Spans are aggregated in memory — a call count,
// the timed calls' total and log2 histogram, and one in every keep timed
// spans with its parent (a simulation cell or a client operation) — and
// written out when the run ends.

// layer indexes one wrapped boundary.
type layer int

const (
	layTraceNext layer = iota
	layVictim
	layOnHit
	layOnFill
	layOnEvict
	layPFTrain
	layObstructed
	layObjGet
	layObjSet
	layObjDelete
	layCell // a whole simulation cell or client operation: the parent span
	numLayers
)

var layerNames = [numLayers]string{
	"trace.next", "policy.victim", "policy.onhit", "policy.onfill", "policy.onevict",
	"prefetch.train", "camat.obstructed", "objcache.get", "objcache.set", "objcache.delete",
	"cell",
}

// spanAgg aggregates one layer's spans.
type spanAgg struct {
	Calls   uint64     `json:"calls"`
	Timed   uint64     `json:"timed"`
	TimedNs int64      `json:"timed_ns"`
	Log2Ns  [40]uint64 `json:"log2_ns_hist"` // bucket i counts durations d with bits.Len(d) == i
	left    uint64     // calls until the next timed one
}

// span is one kept span.
type span struct {
	Layer   string `json:"layer"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// tracer collects one goroutine's spans; every client or simulation
// thread owns its own, and merge folds them together at the end.
type tracer struct {
	epoch    time.Time
	every    uint64 // time one call in every
	keep     uint64 // keep one timed span in every
	maxSpans int
	agg      [numLayers]spanAgg
	exact    [numLayers]*latHist // per-call ns histograms, when requested
	spans    []span
	dropped  uint64 // timed spans not kept because the buffer was full
	nextID   uint64
	parent   uint64
	// obstructedTrue counts obstructed() calls that answered true.
	obstructedTrue uint64
}

func newTracer(epoch time.Time, every, keep uint64, maxSpans int) *tracer {
	t := &tracer{epoch: epoch, every: every, keep: keep, maxSpans: maxSpans,
		spans: make([]span, 0, maxSpans), nextID: 1}
	for i := range t.agg {
		t.agg[i].left = every
	}
	return t
}

// begin counts one call of layer l and reports whether it is timed.
func (t *tracer) begin(l layer) (time.Time, bool) {
	a := &t.agg[l]
	a.Calls++
	a.left--
	if a.left != 0 {
		return time.Time{}, false
	}
	a.left = t.every
	return time.Now(), true
}

// end closes a timed call of layer l that began at start.
func (t *tracer) end(l layer, start time.Time) {
	d := time.Since(start).Nanoseconds()
	a := &t.agg[l]
	a.Timed++
	a.TimedNs += d
	b := bits.Len64(uint64(max(d, 0)))
	a.Log2Ns[min(b, len(a.Log2Ns)-1)]++
	if h := t.exact[l]; h != nil {
		h.add(d)
	}
	if a.Timed%t.keep != 0 {
		return
	}
	if len(t.spans) == t.maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{Layer: layerNames[l], ID: t.nextID, Parent: t.parent,
		StartNs: start.Sub(t.epoch).Nanoseconds(), DurNs: d})
	t.nextID++
}

// openParent starts a parent span (a cell or a client operation); the
// spans recorded until closeParent carry its id.
func (t *tracer) openParent() (time.Time, uint64) {
	t.parent = t.nextID
	t.nextID++
	return time.Now(), t.parent
}

// closeParent records the parent span opened at start, always kept.
func (t *tracer) closeParent(start time.Time, id uint64) int64 {
	d := time.Since(start).Nanoseconds()
	a := &t.agg[layCell]
	a.Calls++
	a.Timed++
	a.TimedNs += d
	if len(t.spans) < t.maxSpans {
		t.spans = append(t.spans, span{Layer: layerNames[layCell], ID: id,
			StartNs: start.Sub(t.epoch).Nanoseconds(), DurNs: d})
	} else {
		t.dropped++
	}
	t.parent = 0
	return d
}

// merge folds o into t.
func (t *tracer) merge(o *tracer) {
	for i := range t.agg {
		a, b := &t.agg[i], &o.agg[i]
		a.Calls += b.Calls
		a.Timed += b.Timed
		a.TimedNs += b.TimedNs
		for j := range a.Log2Ns {
			a.Log2Ns[j] += b.Log2Ns[j]
		}
		if b := o.exact[i]; b != nil {
			if t.exact[i] == nil {
				t.exact[i] = newLatHist()
			}
			t.exact[i].merge(b)
		}
	}
	t.spans = append(t.spans, o.spans...)
	t.dropped += o.dropped
	t.obstructedTrue += o.obstructedTrue
}

// meanNs returns layer l's mean timed-call duration less the measured
// cost of an empty timed span, floored at zero.
func (t *tracer) meanNs(l layer, emptyNs float64) float64 {
	a := &t.agg[l]
	if a.Timed == 0 {
		return 0
	}
	return max(float64(a.TimedNs)/float64(a.Timed)-emptyNs, 0)
}

// estimatedNs extrapolates layer l's total time from its timed calls.
func (t *tracer) estimatedNs(l layer, emptyNs float64) float64 {
	return t.meanNs(l, emptyNs) * float64(t.agg[l].Calls)
}

// emptySpanNs measures what an empty timed span costs, so per-call means
// report the layer's time rather than the clock's.
func emptySpanNs() float64 {
	const n = 200_000
	t := newTracer(time.Now(), 1, 1<<62, 0)
	for i := 0; i < n; i++ {
		t0, _ := t.begin(layCell)
		t.end(layCell, t0)
	}
	return float64(t.agg[layCell].TimedNs) / n
}

// tracedGen wraps a trace generator.
type tracedGen struct {
	inner trace.Generator
	t     *tracer
}

func (g *tracedGen) Next() trace.Record {
	if t0, ok := g.t.begin(layTraceNext); ok {
		r := g.inner.Next()
		g.t.end(layTraceNext, t0)
		return r
	}
	return g.inner.Next()
}

func (g *tracedGen) Reset()       { g.inner.Reset() }
func (g *tracedGen) Name() string { return g.inner.Name() }

// tracedPolicy wraps the LLC replacement policy the scheme's factory
// returns. The simulator has no monomorphized cache for this type, so a
// traced system always runs the interface access chain.
type tracedPolicy struct {
	inner cache.Policy
	t     *tracer
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Victim(set mem.SetIdx, blocks []cache.Block, acc mem.Access) (int, bool) {
	if t0, ok := p.t.begin(layVictim); ok {
		w, bypass := p.inner.Victim(set, blocks, acc)
		p.t.end(layVictim, t0)
		return w, bypass
	}
	return p.inner.Victim(set, blocks, acc)
}

func (p *tracedPolicy) OnHit(set mem.SetIdx, way int, blocks []cache.Block, acc mem.Access) {
	if t0, ok := p.t.begin(layOnHit); ok {
		p.inner.OnHit(set, way, blocks, acc)
		p.t.end(layOnHit, t0)
		return
	}
	p.inner.OnHit(set, way, blocks, acc)
}

func (p *tracedPolicy) OnFill(set mem.SetIdx, way int, blocks []cache.Block, acc mem.Access) {
	if t0, ok := p.t.begin(layOnFill); ok {
		p.inner.OnFill(set, way, blocks, acc)
		p.t.end(layOnFill, t0)
		return
	}
	p.inner.OnFill(set, way, blocks, acc)
}

func (p *tracedPolicy) OnEvict(set mem.SetIdx, way int, blocks []cache.Block) {
	if t0, ok := p.t.begin(layOnEvict); ok {
		p.inner.OnEvict(set, way, blocks)
		p.t.end(layOnEvict, t0)
		return
	}
	p.inner.OnEvict(set, way, blocks)
}

// tracedPrefetcher wraps an L1 or L2 prefetcher.
type tracedPrefetcher struct {
	inner prefetch.Prefetcher
	t     *tracer
}

func (p *tracedPrefetcher) Name() string { return p.inner.Name() }

func (p *tracedPrefetcher) Train(acc mem.Access, hit bool, buf []mem.Addr) []mem.Addr {
	if t0, ok := p.t.begin(layPFTrain); ok {
		out := p.inner.Train(acc, hit, buf)
		p.t.end(layPFTrain, t0)
		return out
	}
	return p.inner.Train(acc, hit, buf)
}

// tracedObstructed wraps the C-AMAT obstruction callback the simulator
// hands the policy factory.
func tracedObstructed(inner func(mem.CoreID) bool, t *tracer) func(mem.CoreID) bool {
	return func(c mem.CoreID) bool {
		var ob bool
		if t0, ok := t.begin(layObstructed); ok {
			ob = inner(c)
			t.end(layObstructed, t0)
		} else {
			ob = inner(c)
		}
		if ob {
			t.obstructedTrue++
		}
		return ob
	}
}

// tracedStore wraps one client's calls into the object cache, timing
// every call.
type tracedStore struct {
	inner *objcache.Cache
	t     *tracer
}

func (s *tracedStore) Get(key string) ([]byte, bool) {
	t0, _ := s.t.begin(layObjGet)
	v, ok := s.inner.Get(key)
	s.t.end(layObjGet, t0)
	return v, ok
}

func (s *tracedStore) Set(key string, val []byte) {
	t0, _ := s.t.begin(layObjSet)
	s.inner.Set(key, val)
	s.t.end(layObjSet, t0)
}

func (s *tracedStore) Delete(key string) bool {
	t0, _ := s.t.begin(layObjDelete)
	ok := s.inner.Delete(key)
	s.t.end(layObjDelete, t0)
	return ok
}

// dump renders the tracer for the run's dump file.
func (t *tracer) dump(emptyNs float64) map[string]any {
	aggs := make(map[string]spanAgg, numLayers)
	for i, a := range t.agg {
		if a.Calls > 0 {
			aggs[layerNames[i]] = a
		}
	}
	return map[string]any{
		"empty_span_ns": emptyNs,
		"timed_every":   t.every,
		"kept_every":    t.keep,
		"aggregates":    aggs,
		"spans":         t.spans,
		"spans_dropped": t.dropped,
	}
}
