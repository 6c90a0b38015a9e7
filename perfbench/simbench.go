package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"chrome/internal/cache"
	"chrome/internal/chrome"
	"chrome/internal/experiments"
	"chrome/internal/mem"
	"chrome/internal/prefetch"
	"chrome/internal/sim"
	"chrome/internal/trace"
	"chrome/internal/workload"
)

// simParams sizes a simulator workload.
type simParams struct {
	Schemes []string `json:"schemes"`
	Mixes   int      `json:"mixes"`
	Cores   int      `json:"cores"`
	// Warmup and Measure are the per-core instruction budgets of a cell.
	Warmup  uint64 `json:"warmup_instr"`
	Measure uint64 `json:"measure_instr"`
	// SetupReps is how many times set-up is repeated; setup_s is the
	// median.
	SetupReps int `json:"setup_reps"`
	// WarmupS is the untimed warm-up before the measurement window.
	WarmupS float64 `json:"warmup_s"`

	schemes []experiments.Scheme
}

// defaultSimParams returns the benchmark's sizing of a sim workload: the
// QuickScale cell budget over seven 4-core mixes. sim-chrome runs CHROME;
// sim-baselines runs the nine other schemes of experiments.AllSchemes.
func defaultSimParams(wl string) simParams {
	p := simParams{Mixes: 7, Cores: 4, Warmup: 30_000, Measure: 120_000, SetupReps: 15, WarmupS: 1}
	for _, s := range experiments.AllSchemes() {
		if (s.Name == "CHROME") == (wl == wlSimChrome) {
			p.schemes = append(p.schemes, s)
			p.Schemes = append(p.Schemes, s.Name)
		}
	}
	return p
}

// ipcStrata orders the SPEC pool by single-core IPC under LRU at the cell
// budget, lowest first (ScaledConfig(1), PFDefault, 30K+120K
// instructions), and pads it with gcc to 28 profiles: seven 4-core mixes.
// benchMixes deals one profile of each quarter of this order to every
// mix.
var ipcStrata = []string{
	"astar", "mcf", "mcf17", "omnetpp", "xz", "soplex", "cactusBSSN",
	"bwaves17", "wrf17", "leslie3d", "xalancbmk17", "GemsFDTD", "bwaves", "xalancbmk",
	"gcc17", "roms", "lbm", "cam4", "gcc", "zeusmp", "milc",
	"libquantum", "fotonik3d", "wrf", "pop2", "gromacs", "hmmer", "gcc",
}

// benchMixes draws the first count of seven stratified 4-core SPEC mixes
// from the seed. Each mix takes one profile from each quarter of
// ipcStrata — the pairing within a quarter and the core each profile runs
// on are seeded — so every seed runs the whole SPEC pool once and every
// mix pairs a slow core with progressively faster ones. Independent draws
// with replacement, as workload.HeterogeneousMixes makes them, let the
// profile make-up of seven mixes swing IPC, MPKI and simulator speed by
// up to ±30% from seed to seed; unstratified permutations still moved
// IPC by ±6% through the grouping alone.
func benchMixes(cores, count int, seed uint64) []workload.Mix {
	byName := map[string]workload.Profile{}
	for _, p := range workload.SPEC() {
		byName[p.Name] = p
	}
	if len(byName) != len(ipcStrata)-1 || cores != 4 {
		panic(fmt.Sprintf("perfbench: stratified mixes cover %d SPEC profiles on 4 cores; the pool has %d, %d cores asked",
			len(ipcStrata)-1, len(byName), cores))
	}
	r := rand.New(rand.NewPCG(seed, mem.Mix64(seed^0x5EED)))
	n := len(ipcStrata) / cores
	var strata [][]workload.Profile
	for s := 0; s < cores; s++ {
		var st []workload.Profile
		for _, name := range ipcStrata[s*n : (s+1)*n] {
			p, ok := byName[name]
			if !ok {
				panic("perfbench: stratum profile " + name + " is not a SPEC profile")
			}
			st = append(st, p)
		}
		r.Shuffle(n, func(i, j int) { st[i], st[j] = st[j], st[i] })
		strata = append(strata, st)
	}
	mixes := make([]workload.Mix, min(count, n))
	for i := range mixes {
		slot := r.Perm(cores)
		ps := make([]workload.Profile, cores)
		for s := range strata {
			ps[slot[s]] = strata[s][i]
		}
		mixes[i] = workload.Mix{Name: fmt.Sprintf("bench-%dc-%02d", cores, i), Profiles: ps}
	}
	return mixes
}

// simCell is one (mix, scheme) simulation.
type simCell struct {
	mix    int
	scheme experiments.Scheme
}

// simRunner holds a sim workload's inputs.
type simRunner struct {
	p     simParams
	sc    experiments.Scale
	mixes []workload.Mix
	recs  [][]*trace.Recording // [mix][core]
	cells []simCell
}

func newSimRunner(p simParams, seed uint64) *simRunner {
	r := &simRunner{p: p, mixes: benchMixes(p.Cores, p.Mixes, seed),
		sc: experiments.Scale{Warmup: mem.InstrOf(p.Warmup), Measure: mem.InstrOf(p.Measure), Seed: seed, Parallelism: 1}}
	for m := range r.mixes {
		for _, s := range p.schemes {
			r.cells = append(r.cells, simCell{mix: m, scheme: s})
		}
	}
	return r
}

// setup records every mix's per-core streams and builds the system of the
// first cell, as every cell builds its own inside RunMixPublic. It returns
// the recording time and the total of recording and building.
func (r *simRunner) setup() (recordS, totalS float64) {
	t0 := time.Now()
	budget := r.sc.Warmup + r.sc.Measure
	type key struct {
		name string
		core int
	}
	seen := map[key]*trace.Recording{}
	r.recs = make([][]*trace.Recording, len(r.mixes))
	for m, mix := range r.mixes {
		for c, prof := range mix.Profiles {
			k := key{prof.Name, c}
			if seen[k] == nil {
				seen[k] = trace.RecordStream(prof.New(c), budget)
			}
			r.recs[m] = append(r.recs[m], seen[k])
		}
	}
	recordS = secondsSince(t0)
	c := r.cells[0]
	cfg := sim.ScaledConfig(r.p.Cores)
	pf := experiments.PFDefault()
	cfg.L1Prefetcher, cfg.L2Prefetcher = pf.L1, pf.L2
	_ = sim.New(cfg, r.gens(c.mix), c.scheme.Factory)
	return recordS, secondsSince(t0)
}

// gens returns fresh replayers of a mix's recordings.
func (r *simRunner) gens(mix int) []trace.Generator {
	g := make([]trace.Generator, len(r.recs[mix]))
	for i, rec := range r.recs[mix] {
		g[i] = rec.Replayer(0)
	}
	return g
}

// cellRun is one finished cell.
type cellRun struct {
	res      sim.Result
	seconds  float64
	accesses uint64 // trace records replayed: simulated memory instructions
	print    uint64 // fingerprint of res
}

// runCell simulates one cell through experiments.RunMixPublic.
func (r *simRunner) runCell(c simCell) cellRun {
	gens := r.gens(c.mix)
	t0 := time.Now()
	res := experiments.RunMixPublic(gens, r.p.Cores, c.scheme, experiments.PFDefault(), r.sc)
	cr := cellRun{res: res, seconds: secondsSince(t0), print: resultPrint(res)}
	for _, g := range gens {
		cr.accesses += uint64(g.(*trace.Replayer).Pos())
	}
	return cr
}

// cellCounters are the layer counters a traced cell reads from the
// system it built.
type cellCounters struct {
	accessMode               string
	memAccesses              uint64
	loadLatSum, loadLatCores float64
	l1, l2                   cache.Stats
	dramReads, dramBusyWait  uint64
	dramAvgLatency           float64
	chrome                   chrome.AgentStats
	qtUpdates                uint64
}

// runTracedCell simulates one cell on a system the benchmark assembles
// exactly as RunMixPublic does, with every layer boundary it hands the
// simulator wrapped: the trace generators, the LLC policy, the
// prefetchers and the C-AMAT obstruction callback.
func (r *simRunner) runTracedCell(c simCell, t *tracer) (cellRun, cellCounters) {
	gens := r.gens(c.mix)
	replayers := make([]*trace.Replayer, len(gens))
	for i, g := range gens {
		replayers[i] = g.(*trace.Replayer)
		gens[i] = &tracedGen{inner: g, t: t}
	}
	pf := experiments.PFDefault()
	cfg := sim.ScaledConfig(r.p.Cores)
	cfg.L1Prefetcher = func() prefetch.Prefetcher { return &tracedPrefetcher{inner: pf.L1(), t: t} }
	cfg.L2Prefetcher = func() prefetch.Prefetcher { return &tracedPrefetcher{inner: pf.L2(), t: t} }
	var pol cache.Policy
	factory := func(sets, ways, cores int, obstructed func(mem.CoreID) bool) cache.Policy {
		pol = c.scheme.Factory(sets, ways, cores, tracedObstructed(obstructed, t))
		return &tracedPolicy{inner: pol, t: t}
	}

	start, id := t.openParent()
	sys := sim.New(cfg, gens, factory)
	res := sys.Run(r.sc.Warmup, r.sc.Measure)
	res.PolicyName = c.scheme.Name
	d := t.closeParent(start, id)

	cr := cellRun{res: res, seconds: float64(d) / 1e9, print: resultPrint(res)}
	dram := sys.DRAM()
	cc := cellCounters{accessMode: sys.AccessMode(), dramReads: dram.Reads(), dramBusyWait: dram.BusyWait(),
		// The unloaded latency the model is configured with plus the mean
		// channel wait per transfer.
		dramAvgLatency: dram.AvgLatency() + ratio(dram.BusyWait(), dram.Reads()+dram.Writes())}
	for i := range gens {
		cr.accesses += uint64(replayers[i].Pos())
		core := sys.Core(i)
		cc.memAccesses += core.MemAccesses()
		cc.loadLatSum += core.AvgLoadLatency()
		cc.loadLatCores++
		addStats(&cc.l1, sys.L1(i).Stats())
		addStats(&cc.l2, sys.L2(i).Stats())
	}
	if a, ok := pol.(*chrome.Agent); ok {
		cc.chrome = a.Stats()
		cc.qtUpdates = a.QTable().Updates()
	}
	return cr, cc
}

func addStats(dst *cache.Stats, s *cache.Stats) {
	dst.DemandLoadHits += s.DemandLoadHits
	dst.DemandLoadMisses += s.DemandLoadMisses
	dst.DemandStoreHits += s.DemandStoreHits
	dst.DemandStoreMisses += s.DemandStoreMisses
	dst.PrefetchFills += s.PrefetchFills
	dst.PrefetchUseful += s.PrefetchUseful
	dst.Bypasses += s.Bypasses
	dst.Evictions += s.Evictions
	dst.EvictionsUnused += s.EvictionsUnused
}

// maxRecordInstr is the most instructions one trace record retires
// (a uint8 Gap plus the memory instruction).
const maxRecordInstr = 256

// checkCell returns why a cell's result is wrong, or "" when it passes:
// every core must retire its whole budget with a finite positive IPC, and
// the LLC must see demand traffic.
func (r *simRunner) checkCell(c simCell, res sim.Result) string {
	name := r.mixes[c.mix].Name + "/" + c.scheme.Name
	if len(res.IPC) != r.p.Cores || len(res.Instructions) != r.p.Cores {
		return fmt.Sprintf("%s: %d cores reported, want %d", name, len(res.IPC), r.p.Cores)
	}
	for i, n := range res.Instructions {
		// A core stops at the first record that reaches its target, so the
		// warm-up can overshoot into the window by up to one record's
		// Gap+1 instructions.
		if n+maxRecordInstr < r.sc.Measure {
			return fmt.Sprintf("%s: core %d retired %d window instructions, budget %d", name, i, n.Uint64(), r.p.Measure)
		}
		if ipc := res.IPC[i]; math.IsNaN(ipc) || math.IsInf(ipc, 0) || ipc <= 0 {
			return fmt.Sprintf("%s: core %d IPC %v", name, i, ipc)
		}
	}
	if want := mem.InstrOf(uint64(r.p.Cores) * (r.p.Warmup + r.p.Measure)); res.TotalInstructions < want {
		return fmt.Sprintf("%s: %d instructions retired in all, budget %d", name, res.TotalInstructions.Uint64(), want.Uint64())
	}
	if res.LLC.DemandAccesses() == 0 {
		return name + ": the LLC saw no demand access"
	}
	return ""
}

// resultPrint hashes every field of a sim.Result.
func resultPrint(res sim.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	h.Write([]byte(res.PolicyName))
	for i := range res.IPC {
		put(math.Float64bits(res.IPC[i]))
	}
	for _, n := range res.Instructions {
		put(n.Uint64())
	}
	for _, c := range res.Cycles {
		put(c.Uint64())
	}
	for _, c := range res.CAMAT {
		put(math.Float64bits(c))
	}
	put(res.TotalInstructions.Uint64())
	put(res.DRAMReads)
	put(res.DRAMWrites)
	fmt.Fprintf(h, "%+v", res.LLC)
	return h.Sum64()
}

// simState accumulates a sim run: the first result of every cell, which
// every later run of the cell must reproduce, and the failure accounting.
type simState struct {
	r         *simRunner
	ref       []*cellRun
	attempted int64
	failed    int64
	problems  []string
}

func newSimState(r *simRunner) *simState {
	return &simState{r: r, ref: make([]*cellRun, len(r.cells))}
}

// check verifies one run of cell i against the correctness rules and
// against the cell's first run.
func (s *simState) check(i int, cr cellRun, label string) {
	s.attempted++
	c := s.r.cells[i]
	msg := s.r.checkCell(c, cr.res)
	if msg == "" {
		if ref := s.ref[i]; ref == nil {
			s.ref[i] = &cr
		} else if ref.print != cr.print {
			msg = fmt.Sprintf("%s/%s: %s result differs from the cell's first run", s.r.mixes[c.mix].Name, c.scheme.Name, label)
		}
	}
	if msg != "" {
		s.failed++
		if len(s.problems) < 20 {
			s.problems = append(s.problems, msg)
		}
	}
}

// fingerprint folds every cell's result into the workload fingerprint.
func (s *simState) fingerprint() string {
	h := fnv.New64a()
	var b [8]byte
	for _, cr := range s.ref {
		if cr == nil {
			return "incomplete"
		}
		binary.LittleEndian.PutUint64(b[:], cr.print)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// modelled sets the deterministic metrics from every cell's first run:
// the modelled IPC, LLC MPKI and LLC demand hit rate over the measurement
// windows.
func (s *simState) modelled(m map[string]float64) {
	var logIPC float64
	var nIPC int
	var winInstr uint64
	var llc cache.Stats
	for _, cr := range s.ref {
		if cr == nil {
			continue
		}
		for i, ipc := range cr.res.IPC {
			logIPC += math.Log(ipc)
			nIPC++
			winInstr += cr.res.Instructions[i].Uint64()
		}
		addStats(&llc, &cr.res.LLC)
	}
	m["ipc_geomean"] = math.Exp(logIPC / float64(nIPC))
	m["llc_mpki"] = float64(llc.DemandMisses()) * 1000 / float64(winInstr)
	m["hit_rate"] = ratio(llc.DemandHits(), llc.DemandAccesses())
}

// runSim runs a simulator workload: set-up, an untimed warm-up, then cells
// in a fixed cycle until the window has elapsed and every cell has run.
func runSim(o options, p simParams) outcome {
	r := newSimRunner(p, o.seed)
	st := newSimState(r)
	oc := outcome{metrics: map[string]float64{}, params: p}

	var setupS, recordS []float64
	for i := 0; i < p.SetupReps; i++ {
		rec, tot := r.setup()
		recordS = append(recordS, rec)
		setupS = append(setupS, tot)
	}
	oc.phases.SetupS = sum(setupS)

	t0 := time.Now()
	for i := 0; i == 0 || secondsSince(t0) < p.WarmupS; i++ {
		n := i % len(r.cells)
		st.check(n, r.runCell(r.cells[n]), "warm-up")
	}
	oc.phases.WarmupS = secondsSince(t0)

	if o.trace {
		runSimTraced(o, r, st, &oc)
		oc.metrics["workload.record_s"] = median(recordS)
	} else {
		runSimUntraced(o, r, st, &oc)
		oc.metrics["setup_s"] = median(setupS)
	}
	oc.fingerprint = st.fingerprint()
	oc.attempted, oc.failed = st.attempted, st.failed
	oc.problems = append(oc.problems, st.problems...)
	return oc
}

func runSimUntraced(o options, r *simRunner, st *simState, oc *outcome) {
	t0 := time.Now()
	times := make([][]float64, len(r.cells))
	for n := 0; n < len(r.cells) || secondsSince(t0) < o.seconds; n++ {
		i := n % len(r.cells)
		cr := r.runCell(r.cells[i])
		st.check(i, cr, "measured")
		times[i] = append(times[i], cr.seconds)
	}
	oc.phases.MeasureS = secondsSince(t0)

	// Every timing reading derives from each cell's median time over its
	// runs, which sets aside host stalls shorter than half the window.
	var instr, accesses uint64
	var cellS float64
	var perAccessUs []float64
	for i, ts := range times {
		ref := st.ref[i]
		if ref == nil {
			continue // the cell failed every check; accounted in failed
		}
		med := median(ts)
		instr += ref.res.TotalInstructions.Uint64()
		accesses += ref.accesses
		cellS += med
		perAccessUs = append(perAccessUs, med*1e6/float64(ref.accesses))
	}
	m := oc.metrics
	st.modelled(m)
	m["sim_MIPS"] = float64(instr) / cellS / 1e6
	m["ops_per_s"] = float64(accesses) / cellS
	m["op_p50_us"] = quantile(perAccessUs, 0.50)
	m["op_p99_us"] = quantile(perAccessUs, 0.99)
}

// runSimTraced alternates rounds of untraced cells, which are CPU-profiled
// for the package shares, with the same cells traced, which give the span
// and counter metrics, until the window has elapsed and every cell has run
// both ways. A round is one mix under every scheme, or every mix when the
// workload has a single scheme.
func runSimTraced(o options, r *simRunner, st *simState, oc *outcome) {
	emptyNs := emptySpanNs()
	t := newTracer(time.Now(), 16, 64, 1<<16)
	roundLen := len(r.p.schemes)
	if roundLen == 1 {
		roundLen = len(r.cells)
	}
	var profs []*profile
	var untracedS, tracedS, untracedInstr float64
	var cellS []float64
	var agg cellCounters
	var llc cache.Stats
	var gc runtimeDelta
	modes := []string{"untraced:" + untracedAccessMode(r)}
	t0 := time.Now()
	for n := 0; n < len(r.cells) || secondsSince(t0) < o.seconds; n += roundLen {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			oc.problems = append(oc.problems, "cpu profile: "+err.Error())
		}
		gc.begin()
		for k := 0; k < roundLen; k++ {
			i := (n + k) % len(r.cells)
			cr := r.runCell(r.cells[i])
			st.check(i, cr, "untraced")
			untracedS += cr.seconds
			untracedInstr += float64(cr.res.TotalInstructions.Uint64())
			cellS = append(cellS, cr.seconds)
		}
		gc.end()
		pprof.StopCPUProfile()
		if prof, err := parseProfile(buf.Bytes()); err != nil {
			oc.problems = append(oc.problems, err.Error())
		} else {
			profs = append(profs, prof)
		}

		for k := 0; k < roundLen; k++ {
			i := (n + k) % len(r.cells)
			cr, cc := r.runTracedCell(r.cells[i], t)
			st.check(i, cr, "traced")
			tracedS += cr.seconds
			if n == 0 && k == 0 {
				modes = append(modes, "traced:"+cc.accessMode)
			}
			agg.memAccesses += cc.memAccesses
			agg.loadLatSum += cc.loadLatSum
			agg.loadLatCores += cc.loadLatCores
			addStats(&agg.l1, &cc.l1)
			addStats(&agg.l2, &cc.l2)
			addStats(&llc, &cr.res.LLC)
			agg.dramReads += cc.dramReads
			agg.dramBusyWait += cc.dramBusyWait
			agg.dramAvgLatency += cc.dramAvgLatency
			agg.chrome.Decisions += cc.chrome.Decisions
			agg.chrome.Explorations += cc.chrome.Explorations
			agg.chrome.SampledAccesses += cc.chrome.SampledAccesses
			agg.qtUpdates += cc.qtUpdates
		}
	}
	oc.phases.MeasureS = secondsSince(t0)

	m := oc.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	tracedCells := float64(t.agg[layCell].Calls)
	m["trace.next_calls"] = float64(t.agg[layTraceNext].Calls)
	m["trace.next_ns"] = t.meanNs(layTraceNext, emptyNs)
	m["cpu.mem_accesses"] = float64(agg.memAccesses)
	m["cpu.load_latency_cyc"] = agg.loadLatSum / agg.loadLatCores
	m["cache.l1_hit_ratio"] = ratio(agg.l1.DemandHits(), agg.l1.DemandAccesses())
	m["cache.l2_hit_ratio"] = ratio(agg.l2.DemandHits(), agg.l2.DemandAccesses())
	m["llc.miss_ratio"] = ratio(llc.DemandMisses(), llc.DemandAccesses())
	m["llc.bypasses"] = float64(llc.Bypasses)
	m["llc.unused_evict_ratio"] = ratio(llc.EvictionsUnused, llc.Evictions)
	m["policy.victim_calls"] = float64(t.agg[layVictim].Calls)
	m["policy.victim_ns"] = t.meanNs(layVictim, emptyNs)
	m["policy.onhit_ns"] = t.meanNs(layOnHit, emptyNs)
	m["policy.onfill_ns"] = t.meanNs(layOnFill, emptyNs)
	m["chrome.decisions"] = float64(agg.chrome.Decisions)
	m["chrome.explore_ratio"] = ratio(agg.chrome.Explorations, agg.chrome.Decisions)
	m["chrome.qtable_updates"] = float64(agg.qtUpdates)
	m["chrome.upksa"] = ratio(agg.qtUpdates*1000, agg.chrome.SampledAccesses)
	m["prefetch.train_calls"] = float64(t.agg[layPFTrain].Calls)
	m["prefetch.train_ns"] = t.meanNs(layPFTrain, emptyNs)
	m["prefetch.useful_ratio"] = ratio(agg.l1.PrefetchUseful+agg.l2.PrefetchUseful, agg.l1.PrefetchFills+agg.l2.PrefetchFills)
	m["dram.reads"] = float64(agg.dramReads)
	m["dram.busy_wait_cyc"] = float64(agg.dramBusyWait)
	m["dram.avg_latency_cyc"] = agg.dramAvgLatency / tracedCells
	m["camat.obstructed_calls"] = float64(t.agg[layObstructed].Calls)
	m["camat.obstructed_ratio"] = ratio(t.obstructedTrue, t.agg[layObstructed].Calls)
	wrappedNs := 0.0
	for _, l := range []layer{layTraceNext, layVictim, layOnHit, layOnFill, layOnEvict, layPFTrain, layObstructed} {
		wrappedNs += t.estimatedNs(l, emptyNs)
	}
	m["sim.self_ns_per_access"] = max(tracedS*1e9-wrappedNs, 0) / float64(agg.memAccesses)
	m["experiments.cell_s_p50"] = quantile(cellS, 0.5)
	m["experiments.cell_s_max"] = quantile(cellS, 1)
	m["go.gc_cpu_frac"] = gc.gcFrac()
	m["go.allocs_per_kinstr"] = float64(gc.allocs) * 1000 / untracedInstr
	m["trace_overhead_frac"] = tracedS/untracedS - 1

	shares, err := cpuShares(profs)
	if err != nil {
		oc.problems = append(oc.problems, err.Error())
	}
	setShares(m, shares)
	oc.notes = append(oc.notes, fmt.Sprint("access_mode ", modes), "cpu_shares "+sortedShares(shares))
	oc.dump = map[string]any{"spans": t.dump(emptyNs), "cpu_shares": shares, "access_modes": modes}
}

// untracedAccessMode reports the access chain RunMixPublic's systems use
// for the workload's first scheme.
func untracedAccessMode(r *simRunner) string {
	cfg := sim.ScaledConfig(r.p.Cores)
	return sim.New(cfg, r.gens(0), r.p.schemes[0].Factory).AccessMode()
}

// setShares copies the profile's package shares into the per-layer
// metrics.
func setShares(m map[string]float64, shares map[string]float64) {
	m["cpu.share"] = shares["cpu"]
	m["cache.share"] = shares["cache"]
	m["policy.share"] = shares["policy"]
	m["chrome.share"] = shares["chrome"]
	m["chrome.qtable_share"] = shares["chrome.qtable"]
	m["chrome.eq_share"] = shares["chrome.eq"]
	m["sim.share"] = shares["sim"]
	m["objcache.chrome_share"] = 0
}

func ratio[T uint64 | int64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// runtimeDelta accumulates the Go runtime's estimates of GC and user CPU
// time and its heap allocations over the intervals between begin and end.
type runtimeDelta struct {
	gcCPU, userCPU float64
	allocs         uint64
	start          [3]metrics.Sample
}

var runtimeMetricNames = [3]string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/gc/heap/allocs:objects",
}

func (d *runtimeDelta) read() [3]metrics.Sample {
	var s [3]metrics.Sample
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s[:])
	return s
}

func (d *runtimeDelta) begin() { d.start = d.read() }

func (d *runtimeDelta) end() {
	now := d.read()
	d.gcCPU += now[0].Value.Float64() - d.start[0].Value.Float64()
	d.userCPU += now[1].Value.Float64() - d.start[1].Value.Float64()
	d.allocs += now[2].Value.Uint64() - d.start[2].Value.Uint64()
}

// gcFrac is GC CPU time as a share of GC and user CPU time.
func (d *runtimeDelta) gcFrac() float64 {
	if d.gcCPU+d.userCPU <= 0 {
		return 0
	}
	return d.gcCPU / (d.gcCPU + d.userCPU)
}
