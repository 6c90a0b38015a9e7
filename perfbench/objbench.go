package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chrome/internal/mem"
	"chrome/internal/objcache"
)

// objParams sizes the objcache-scan workload.
type objParams struct {
	Shards      int     `json:"shards"`
	CapacityMiB int64   `json:"capacity_mib"`
	Policy      string  `json:"policy"`
	Clients     int     `json:"clients"`
	Keys        int     `json:"keys"`
	Zipf        float64 `json:"zipf"`
	MinSize     int     `json:"min_size"`
	MaxSize     int     `json:"max_size"`
	// OverwritePm and DeletePm are the per-mille shares of point
	// operations that overwrite a key (Set) or delete it.
	OverwritePm int `json:"overwrite_pm"`
	DeletePm    int `json:"delete_pm"`
	// Every ScanEvery operations a client streams ScanLen fresh objects
	// of ScanKB KiB through the store; scan keys cycle through a ring of
	// ScanRing keys shared out between the clients.
	ScanEvery int `json:"scan_every"`
	ScanLen   int `json:"scan_len"`
	ScanKB    int `json:"scan_kb"`
	ScanRing  int `json:"scan_ring"`
	// RotateEvery operations a client shifts its hot set by a quarter of
	// the key space.
	RotateEvery int `json:"rotate_every"`
	// WarmupOps is each client's untimed operation count after the fill.
	WarmupOps int `json:"warmup_ops"`
	SetupReps int `json:"setup_reps"`
}

// defaultObjParams sizes the workload after cmd/objbench's defaults, the
// harness behind EXPERIMENTS.md's svc result: Zipf(0.99) over 100k keys
// of 64–4096 B, 64 MiB over 8 shards, a 500-object scan of 16 KiB every
// 5000 operations and a hot-set rotation every 50000 per client. Two
// clients, one per CPU of the host. The scan ring holds as many objects
// as the store has room for, so a scan object is pushed out by newer
// traffic before its key comes round again.
func defaultObjParams() objParams {
	return objParams{
		Shards: 8, CapacityMiB: 64, Policy: "chrome", Clients: 2,
		Keys: 100_000, Zipf: 0.99, MinSize: 64, MaxSize: 4096,
		OverwritePm: 50, DeletePm: 10,
		ScanEvery: 5000, ScanLen: 500, ScanKB: 16, ScanRing: 4096,
		RotateEvery: 50_000, WarmupOps: 100_000, SetupReps: 5,
	}
}

// valueSet holds every key and the one value each key is ever stored
// with, allocated before any timed operation. A value carries a stamp
// derived from its key in its first and last 8 bytes, so a hit that
// returns another key's bytes, or a truncated value, is caught.
type valueSet struct {
	keys   []string // point keys [0, Keys), then the scan ring
	vals   [][]byte
	stamps []uint64
}

func newValueSet(p objParams, seed uint64) *valueSet {
	n := p.Keys + p.ScanRing
	vs := &valueSet{keys: make([]string, n), vals: make([][]byte, n), stamps: make([]uint64, n)}
	sizes := make([]int, n)
	total := 0
	for i := range sizes {
		if i < p.Keys {
			vs.keys[i] = fmt.Sprintf("k%06d", i)
			sizes[i] = p.MinSize + int(mem.Mix64(seed^uint64(i))%uint64(p.MaxSize-p.MinSize+1))
		} else {
			vs.keys[i] = fmt.Sprintf("s%06d", i-p.Keys)
			sizes[i] = p.ScanKB << 10
		}
		total += sizes[i]
	}
	arena := make([]byte, total)
	off := 0
	for i, sz := range sizes {
		v := arena[off : off+sz : off+sz]
		off += sz
		vs.stamps[i] = mem.Mix64(seed ^ 0xA5A5A5A5 ^ uint64(i)<<20)
		binary.LittleEndian.PutUint64(v, vs.stamps[i])
		binary.LittleEndian.PutUint64(v[sz-8:], vs.stamps[i])
		vs.vals[i] = v
	}
	return vs
}

// verify reports whether v is exactly what was stored under key i.
func (vs *valueSet) verify(i int, v []byte) bool {
	want := vs.vals[i]
	return len(v) == len(want) &&
		binary.LittleEndian.Uint64(v) == vs.stamps[i] &&
		binary.LittleEndian.Uint64(v[len(v)-8:]) == vs.stamps[i]
}

// zipfTable draws ranks with P(rank=i) ∝ 1/(i+1)^theta by inverse CDF.
type zipfTable struct {
	cum   []float64
	total float64
}

func newZipfTable(n int, theta float64) *zipfTable {
	t := &zipfTable{cum: make([]float64, n)}
	for i := range t.cum {
		t.total += 1 / math.Pow(float64(i+1), theta)
		t.cum[i] = t.total
	}
	return t
}

func (t *zipfTable) rank(r uint64) int {
	u := float64(r>>11) / (1 << 53) * t.total
	return min(sort.SearchFloat64s(t.cum, u), len(t.cum)-1)
}

// store is the part of *objcache.Cache a client drives; the traced run
// substitutes tracedStore.
type store interface {
	Get(key string) ([]byte, bool)
	Set(key string, val []byte)
	Delete(key string) bool
}

// client is one closed-loop client: it sends its next operation only
// when the previous one has returned.
type client struct {
	p      objParams
	vs     *valueSet
	zipf   *zipfTable
	st     store
	rng    uint64
	n      int // operations issued, warm-up included
	offset int // hot-set rotation
	// scanLeft counts the current scan's remaining objects; scanPos walks
	// the client's share of the scan ring.
	scanLeft, scanPos, scanBase, scanSpan int
	lat                                   *latHist // nil while warming up

	ops                atomic.Int64 // read while the client runs
	gets, hits, failed int64
	// bytesAsked and bytesHit are the value bytes of every Get and of
	// those served from the store.
	bytesAsked, bytesHit int64
}

func newClient(p objParams, vs *valueSet, z *zipfTable, st store, seed uint64, id int) *client {
	span := p.ScanRing / p.Clients
	return &client{p: p, vs: vs, zipf: z, st: st, rng: mem.Mix64(seed ^ (uint64(id)+1)*0x9E3779B97F4A7C15),
		scanBase: p.Keys + id*span, scanSpan: span}
}

func (c *client) next() uint64 {
	c.rng = mem.Mix64(c.rng)
	return c.rng
}

// op issues one operation, timing it when a histogram is attached.
func (c *client) op() {
	p := &c.p
	if c.n > 0 && c.n%p.RotateEvery == 0 {
		c.offset += p.Keys / 4
	}
	if c.scanLeft == 0 && c.n > 0 && c.n%p.ScanEvery == 0 {
		c.scanLeft = p.ScanLen
	}
	c.n++
	var t0 time.Time
	if c.lat != nil {
		t0 = time.Now()
	}
	if c.scanLeft > 0 {
		c.scanLeft--
		c.getFill(c.scanBase + c.scanPos)
		c.scanPos = (c.scanPos + 1) % c.scanSpan
	} else {
		k := (c.zipf.rank(c.next()) + c.offset) % p.Keys
		switch u := int(c.next() % 1000); {
		case u < p.DeletePm:
			c.st.Delete(c.vs.keys[k])
		case u < p.DeletePm+p.OverwritePm:
			c.st.Set(c.vs.keys[k], c.vs.vals[k])
		default:
			c.getFill(k)
		}
	}
	if c.lat != nil {
		c.lat.add(time.Since(t0).Nanoseconds())
	}
	c.ops.Add(1)
}

// getFill reads key i and, on a miss, fills it cache-aside.
func (c *client) getFill(i int) {
	c.gets++
	c.bytesAsked += int64(len(c.vs.vals[i]))
	v, ok := c.st.Get(c.vs.keys[i])
	if !ok {
		c.st.Set(c.vs.keys[i], c.vs.vals[i])
		return
	}
	c.hits++
	c.bytesHit += int64(len(v))
	if !c.vs.verify(i, v) {
		c.failed++
	}
}

// objRun is one set-up store with its clients.
type objRun struct {
	cache   *objcache.Cache
	clients []*client
}

// setupObj builds the store and the clients over the values vs, fills the
// store with every point key in a seeded order, and runs each client's
// untimed warm-up.
func setupObj(p objParams, vs *valueSet, seed uint64) *objRun {
	z := newZipfTable(p.Keys, p.Zipf)
	c := objcache.New(objcache.Config{Shards: p.Shards, CapacityBytes: p.CapacityMiB << 20, Policy: p.Policy, Seed: seed})
	r := &objRun{cache: c}
	fill := mem.Mix64(seed ^ 0xF111)
	for i := 0; i < p.Keys; i++ {
		fill = mem.Mix64(fill)
		k := int(fill % uint64(p.Keys))
		c.Set(vs.keys[k], vs.vals[k])
	}
	for id := 0; id < p.Clients; id++ {
		r.clients = append(r.clients, newClient(p, vs, z, c, seed, id))
	}
	var wg sync.WaitGroup
	for _, cl := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < p.WarmupOps; i++ {
				cl.op()
			}
		}()
	}
	wg.Wait()
	return r
}

// phase runs every client until d has elapsed and returns the wall time
// with each client's operation rate (ops/s) in every whole slice of the
// phase.
func (r *objRun) phase(d, slice time.Duration) (float64, [][]float64) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, cl := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				cl.op()
			}
		}()
	}
	rates := make([][]float64, len(r.clients))
	prev := make([]int64, len(r.clients))
	for i, cl := range r.clients {
		prev[i] = cl.ops.Load()
	}
	last := t0
	for end := t0.Add(d); ; {
		next := last.Add(slice)
		if next.After(end) {
			time.Sleep(time.Until(end))
			break
		}
		time.Sleep(time.Until(next))
		now := time.Now()
		for i, cl := range r.clients {
			n := cl.ops.Load()
			rates[i] = append(rates[i], float64(n-prev[i])/now.Sub(last).Seconds())
			prev[i] = n
		}
		last = now
	}
	stop.Store(true)
	wg.Wait()
	if len(rates[0]) == 0 { // a phase shorter than one slice is one slice
		for i, cl := range r.clients {
			rates[i] = append(rates[i], float64(cl.ops.Load()-prev[i])/secondsSince(t0))
		}
	}
	return secondsSince(t0), rates
}

// totals sums the clients' counters.
func (r *objRun) totals() (ops, gets, hits, failed int64) {
	for _, cl := range r.clients {
		ops += cl.ops.Load()
		gets += cl.gets
		hits += cl.hits
		failed += cl.failed
	}
	return
}

// conservation checks the store's own ledgers once every client has
// stopped.
func (r *objRun) conservation() []string {
	st := r.cache.Stats()
	var out []string
	if live := st.Admits - st.Evictions - st.Deletes; live != int64(r.cache.Len()) {
		out = append(out, fmt.Sprintf("objcache: admits-evictions-deletes = %d, live objects %d", live, r.cache.Len()))
	}
	if b := st.BytesAdmitted + st.BytesResized - st.BytesEvicted - st.BytesDeleted; b != r.cache.SizeBytes() {
		out = append(out, fmt.Sprintf("objcache: byte ledger %d, accounted bytes %d", b, r.cache.SizeBytes()))
	}
	return out
}

// runObjcache runs the objcache-scan workload.
func runObjcache(o options, p objParams) outcome {
	oc := outcome{metrics: map[string]float64{}, params: p}
	// The keys and values are the benchmark's, made once and shared by
	// every repetition; set-up times the store: build, fill and warm-up.
	t0 := time.Now()
	vs := newValueSet(p, o.seed)
	valuesS := secondsSince(t0)
	var setupS []float64
	var r *objRun
	for i := 0; i < p.SetupReps; i++ {
		if r != nil {
			r.cache.Close()
		}
		t0 := time.Now()
		r = setupObj(p, vs, o.seed)
		setupS = append(setupS, secondsSince(t0))
	}
	defer r.cache.Close()
	oc.phases.SetupS = valuesS + sum(setupS)
	oc.phases.WarmupS = 0 // the warm-up is part of set-up

	if o.trace {
		runObjTraced(o, r, &oc)
	} else {
		runObjUntraced(o, r, &oc)
		oc.metrics["setup_s"] = median(setupS)
	}
	ops, _, _, failed := r.totals()
	oc.attempted, oc.failed = ops, failed
	if failed > 0 {
		oc.problems = append(oc.problems, fmt.Sprintf("objcache: %d hits returned bytes other than those stored", failed))
	}
	oc.problems = append(oc.problems, r.conservation()...)
	return oc
}

// attachHists gives every client a fresh latency histogram, so the next
// phase's latencies are measured apart from the warm-up's.
func (r *objRun) attachHists() {
	for _, cl := range r.clients {
		cl.lat = newLatHist()
	}
}

func runObjUntraced(o options, r *objRun, oc *outcome) {
	r.attachHists()
	ops0, gets0, hits0, _ := r.totals()
	asked0, hit0 := make([]int64, len(r.clients)), make([]int64, len(r.clients))
	for i, cl := range r.clients {
		asked0[i], hit0[i] = cl.bytesAsked, cl.bytesHit
	}
	wall, rates := r.phase(time.Duration(o.seconds*float64(time.Second)), time.Second)
	oc.phases.MeasureS = wall
	ops1, gets1, hits1, _ := r.totals()
	ops, gets, hits := ops1-ops0, gets1-gets0, hits1-hits0

	// Throughput is the median over one-second slices, which sets aside
	// host stalls shorter than half the window.
	lat := newLatHist()
	total := make([]float64, len(rates[0]))
	var logBytesHit float64
	for i, cl := range r.clients {
		lat.merge(cl.lat)
		for j, v := range rates[i] {
			total[j] += v
		}
		logBytesHit += math.Log(ratio(cl.bytesHit-hit0[i], cl.bytesAsked-asked0[i]))
	}
	m := oc.metrics
	m["ops_per_s"] = median(total)
	m["op_p50_us"] = float64(lat.quantile(0.50)) / 1e3
	m["op_p99_us"] = float64(lat.quantile(0.99)) / 1e3
	m["hit_rate"] = ratio(hits, gets)
	// Store-side readings of the simulator's three metrics (README.md):
	// an operation stands for an instruction and a client for a core, and
	// the modelled outcome per core is the client's bytes-hit rate.
	m["sim_MIPS"] = m["ops_per_s"] / 1e6
	m["ipc_geomean"] = math.Exp(logBytesHit / float64(len(r.clients)))
	m["llc_mpki"] = float64(gets-hits) * 1000 / float64(ops)
}

// runObjTraced alternates untraced phases, which take the CPU and mutex
// profiles, with traced phases, whose wrapped store calls give the span
// metrics.
func runObjTraced(o options, r *objRun, oc *outcome) {
	const pairs = 3
	phaseD := time.Duration(o.seconds / (2 * pairs) * float64(time.Second))
	emptyNs := emptySpanNs()
	epoch := time.Now()
	tracers := make([]*tracer, len(r.clients))
	traced := make([]store, len(r.clients))
	for i := range r.clients {
		tracers[i] = newTracer(epoch, 1, 64, 1<<15)
		for _, l := range []layer{layObjGet, layObjSet, layObjDelete} {
			tracers[i].exact[l] = newLatHist()
		}
		traced[i] = &tracedStore{inner: r.cache, t: tracers[i]}
	}
	stats0, shards0 := r.cache.Stats(), r.cache.ShardStats()
	var profs []*profile
	var gc runtimeDelta
	var lockNs int64
	var untracedS, tracedS float64
	var untracedOps, tracedOps int64
	runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(0)
	for i := 0; i < pairs; i++ {
		before, err := mutexProfile()
		if err != nil {
			oc.problems = append(oc.problems, err.Error())
		}
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			oc.problems = append(oc.problems, "cpu profile: "+err.Error())
		}
		ops0, _, _, _ := r.totals()
		gc.begin()
		w, _ := r.phase(phaseD, phaseD)
		untracedS += w
		gc.end()
		pprof.StopCPUProfile()
		ops1, _, _, _ := r.totals()
		untracedOps += ops1 - ops0
		after, err := mutexProfile()
		if err != nil {
			oc.problems = append(oc.problems, err.Error())
		}
		lockNs += after - before
		if prof, err := parseProfile(buf.Bytes()); err != nil {
			oc.problems = append(oc.problems, err.Error())
		} else {
			profs = append(profs, prof)
		}

		for j, cl := range r.clients {
			cl.st = traced[j]
		}
		w, _ = r.phase(phaseD, phaseD)
		tracedS += w
		for _, cl := range r.clients {
			cl.st = r.cache
		}
		ops2, _, _, _ := r.totals()
		tracedOps += ops2 - ops1
	}
	oc.phases.MeasureS = untracedS + tracedS

	t := tracers[0]
	for _, other := range tracers[1:] {
		t.merge(other)
	}
	stats1, shards1 := r.cache.Stats(), r.cache.ShardStats()
	m := oc.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	m["objcache.get_ns_p50"] = float64(t.exact[layObjGet].quantile(0.50)) - emptyNs
	m["objcache.get_ns_p99"] = float64(t.exact[layObjGet].quantile(0.99)) - emptyNs
	m["objcache.set_ns_p50"] = float64(t.exact[layObjSet].quantile(0.50)) - emptyNs
	m["objcache.set_ns_p99"] = float64(t.exact[layObjSet].quantile(0.99)) - emptyNs
	admits, bypasses := stats1.Admits-stats0.Admits, stats1.Bypasses-stats0.Bypasses
	m["objcache.admit_ratio"] = ratio(admits, admits+bypasses)
	m["objcache.evictions"] = float64(stats1.Evictions - stats0.Evictions)
	var maxOps, allOps int64
	for i := range shards1 {
		n := shards1[i].Gets + shards1[i].Sets - shards0[i].Gets - shards0[i].Sets
		maxOps = max(maxOps, n)
		allOps += n
	}
	m["objcache.shard_skew"] = float64(maxOps) * float64(len(shards1)) / float64(allOps)
	m["objcache.lock_wait_frac"] = float64(lockNs) / (untracedS * 1e9 * float64(len(r.clients)))
	m["go.gc_cpu_frac"] = gc.gcFrac()
	m["trace_overhead_frac"] = (float64(untracedOps)/untracedS)/(float64(tracedOps)/tracedS) - 1

	shares, err := cpuShares(profs)
	if err != nil {
		oc.problems = append(oc.problems, err.Error())
	}
	setShares(m, shares)
	m["objcache.chrome_share"] = shares["chrome"]
	oc.notes = append(oc.notes, "cpu_shares "+sortedShares(shares))
	oc.dump = map[string]any{"spans": t.dump(emptyNs), "cpu_shares": shares, "lock_wait_ns": lockNs}
}

// mutexProfile returns the contention delay the runtime mutex profile
// has recorded so far inside package objcache.
func mutexProfile() (int64, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 0); err != nil {
		return 0, fmt.Errorf("mutex profile: %w", err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return 0, err
	}
	return lockWaitNs(p, "chrome/internal/objcache")
}
