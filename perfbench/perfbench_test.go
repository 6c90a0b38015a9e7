package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"chrome/internal/experiments"
	"chrome/internal/mem"
	"chrome/internal/objcache"
	"chrome/internal/workload"
)

// tinySimParams shrinks a sim workload to one mix on a small budget.
func tinySimParams(wl string) simParams {
	p := defaultSimParams(wl)
	p.Mixes, p.Warmup, p.Measure, p.SetupReps, p.WarmupS = 1, 2_000, 8_000, 1, 0
	return p
}

// tinyObjParams shrinks objcache-scan to a small key space.
func tinyObjParams() objParams {
	p := defaultObjParams()
	p.Keys, p.CapacityMiB, p.ScanRing, p.ScanLen, p.ScanEvery, p.RotateEvery = 2048, 1, 128, 16, 500, 3000
	p.WarmupOps, p.SetupReps = 2000, 1
	return p
}

// onlySchemes keeps the named schemes of p.
func onlySchemes(p simParams, names ...string) simParams {
	p.schemes, p.Schemes = nil, nil
	for _, s := range experiments.AllSchemes() {
		if slices.Contains(names, s.Name) {
			p.schemes = append(p.schemes, s)
			p.Schemes = append(p.Schemes, s.Name)
		}
	}
	return p
}

// TestWrappersTransparent holds the traced cell — every layer boundary
// wrapped, the system assembled by the benchmark — to RunMixPublic over
// the repository's own replay engine, result for result.
func TestWrappersTransparent(t *testing.T) {
	for _, p := range []simParams{
		tinySimParams(wlSimChrome),
		onlySchemes(tinySimParams(wlSimBaselines), "LRU", "CARE"),
	} {
		p.Warmup, p.Measure = 5_000, 20_000
		r := newSimRunner(p, 7)
		r.setup()
		tr := newTracer(time.Now(), 3, 1, 1<<12)
		for _, c := range r.cells {
			budget := r.sc.Warmup + r.sc.Measure
			ref := experiments.RunMixPublic(r.mixes[c.mix].ReplayGenerators(budget), p.Cores, c.scheme, experiments.PFDefault(), r.sc)
			plain := r.runCell(c)
			traced, cc := r.runTracedCell(c, tr)
			if !reflect.DeepEqual(ref, plain.res) {
				t.Errorf("%s: the benchmark's recordings change the result:\n%+v\nvs\n%+v", c.scheme.Name, ref, plain.res)
			}
			if !reflect.DeepEqual(plain.res, traced.res) {
				t.Errorf("%s: the wrappers change the result:\n%+v\nvs\n%+v", c.scheme.Name, plain.res, traced.res)
			}
			if plain.print != traced.print {
				t.Errorf("%s: fingerprints differ", c.scheme.Name)
			}
			if cc.accessMode != "interface" {
				t.Errorf("%s: traced system runs the %q chain", c.scheme.Name, cc.accessMode)
			}
			if msg := r.checkCell(c, plain.res); msg != "" {
				t.Error(msg)
			}
		}
		for _, l := range []layer{layTraceNext, layVictim, layOnHit, layOnFill, layPFTrain, layObstructed} {
			if tr.agg[l].Calls == 0 || tr.agg[l].Timed == 0 {
				t.Errorf("%v: layer %s saw %d calls, %d timed", p.Schemes, layerNames[l], tr.agg[l].Calls, tr.agg[l].Timed)
			}
		}
	}
}

// corruptingStore corrupts every hit: it flips a stamp byte of one value
// and serves the next key's value for the other.
type corruptingStore struct {
	*objcache.Cache
	vs   *valueSet
	flip bool
}

func (s *corruptingStore) Get(key string) ([]byte, bool) {
	v, ok := s.Cache.Get(key)
	if !ok {
		return nil, false
	}
	s.flip = !s.flip
	if s.flip {
		bad := append([]byte(nil), v...)
		bad[3] ^= 1
		return bad, true
	}
	for i, k := range s.vs.keys {
		if k == key {
			return s.vs.vals[(i+1)%len(s.vs.vals)], true
		}
	}
	return v, true
}

func TestVerifierCatchesCorruption(t *testing.T) {
	p := tinyObjParams()
	vs := newValueSet(p, 3)
	for i := range vs.vals {
		if !vs.verify(i, vs.vals[i]) {
			t.Fatalf("key %d: stored value fails verification", i)
		}
	}
	v := vs.vals[5]
	flipped := append([]byte(nil), v...)
	flipped[0] ^= 0x80
	for name, bad := range map[string][]byte{
		"flipped stamp":  flipped,
		"truncated":      v[:len(v)-1],
		"another key":    vs.vals[6],
		"extended":       append(append([]byte(nil), v...), 0),
		"empty-but-long": make([]byte, len(v)),
	} {
		if vs.verify(5, bad) {
			t.Errorf("%s: verification passed", name)
		}
	}

	c := objcache.New(objcache.Config{Shards: 2, CapacityBytes: 4 << 20, Policy: "lru", Seed: 1})
	defer c.Close()
	cl := newClient(p, vs, newZipfTable(p.Keys, p.Zipf), &corruptingStore{Cache: c, vs: vs}, 1, 0)
	for i := 0; i < 5000; i++ {
		cl.op()
	}
	if cl.hits == 0 || cl.failed != cl.hits {
		t.Errorf("corrupted hits: %d hits, %d failed; every hit should fail", cl.hits, cl.failed)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range bf.Workloads {
		wls = append(wls, w.Name)
	}
	if !slices.Equal(wls, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", wls, workloadNames)
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v, program %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json %v, program %v", layers, perLayer)
	}

	// Every workload measures every metric it must print.
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, wl := range workloadNames {
			o := options{workload: wl, seed: 2, seconds: 0.3, trace: traced}
			var oc outcome
			if wl == wlObjcacheScan {
				oc = runObjcache(o, tinyObjParams())
			} else {
				oc = runSim(o, onlySchemes(tinySimParams(wl), "CHROME", "CARE"))
			}
			if len(oc.problems) > 0 || oc.failed > 0 || oc.attempted == 0 {
				t.Errorf("%s trace=%v: problems %v, %d/%d failed", wl, traced, oc.problems, oc.failed, oc.attempted)
			}
			for _, d := range defs {
				if _, ok := oc.metrics[d.name]; !ok && d.name != "peak_rss_mb" {
					t.Errorf("%s trace=%v: %s not measured", wl, traced, d.name)
				}
			}
		}
	}
}

// TestPrintedResultLine runs the command end to end on a short window
// and holds its last output line to the result contract.
func TestPrintedResultLine(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{wlSimChrome, wlObjcacheScan} {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			if code := run([]string{"--workload", wl, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--out", ""}, &out); code != 0 {
				t.Fatalf("%s trace=%s: exit %d", wl, trace, code)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", wl, trace, err)
			}
			var keys []string
			for k := range res {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("%s trace=%s: result keys %v", wl, trace, keys)
			}
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			if trace == "0" {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d, %d metrics for %d names",
					wl, trace, r.Correct, r.Failed, r.Attempted, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				mv, ok := r.Metrics[name]
				if !ok || mv.Unit != unit {
					t.Errorf("%s trace=%s: %s printed as %+v (present %v), want unit %s", wl, trace, name, mv, ok, unit)
				}
				if trace == "0" && mv.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", wl, name)
				}
			}
		}
	}
}

// recordingStore is a map-backed store that logs every call.
type recordingStore struct {
	m   map[string][]byte
	log []string
}

func (s *recordingStore) Get(k string) ([]byte, bool) {
	s.log = append(s.log, "g"+k)
	v, ok := s.m[k]
	return v, ok
}

func (s *recordingStore) Set(k string, v []byte) {
	s.log = append(s.log, "s"+k)
	s.m[k] = v
}

func (s *recordingStore) Delete(k string) bool {
	s.log = append(s.log, "d"+k)
	_, ok := s.m[k]
	delete(s.m, k)
	return ok
}

func TestSeedDeterminism(t *testing.T) {
	mixNames := func(seed uint64) []string {
		var out []string
		for _, m := range benchMixes(4, 7, seed) {
			for _, p := range m.Profiles {
				out = append(out, p.Name)
			}
		}
		return out
	}
	a, b, c := mixNames(11), mixNames(11), mixNames(12)
	if !slices.Equal(a, b) {
		t.Error("one seed gave two mix sets")
	}
	if slices.Equal(a, c) {
		t.Error("two seeds gave the same mixes")
	}
	for _, p := range workload.SPEC() {
		if !slices.Contains(a, p.Name) {
			t.Errorf("profile %s missing from the mixes", p.Name)
		}
	}

	stream := func(seed uint64) []string {
		p := tinyObjParams()
		vs := newValueSet(p, seed)
		st := &recordingStore{m: map[string][]byte{}}
		cl := newClient(p, vs, newZipfTable(p.Keys, p.Zipf), st, seed, 1)
		for i := 0; i < 4000; i++ {
			cl.op()
		}
		return st.log
	}
	if !slices.Equal(stream(5), stream(5)) {
		t.Error("one seed gave two key streams")
	}
	if slices.Equal(stream(5), stream(6)) {
		t.Error("two seeds gave the same key stream")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles(1..10) = %v", q)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q := quartiles([]float64{4, 1, 2}); q != [3]float64{1, 2, 4} {
		t.Errorf("quartiles(1,2,4) = %v", q)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	faster := make([]float64, len(base))
	slower := make([]float64, len(base))
	for i, b := range base {
		faster[i], slower[i] = b*1.2, b*0.8
	}
	if v, _ := verdict(base, faster, false); v != "win" {
		t.Errorf("higher-better head 20%% up: %s", v)
	}
	if v, _ := verdict(base, slower, false); v != "loss" {
		t.Errorf("higher-better head 20%% down: %s", v)
	}
	if v, _ := verdict(base, slower, true); v != "win" {
		t.Errorf("lower-better head 20%% down: %s", v)
	}
	mixed := append([]float64(nil), faster...)
	mixed[0], mixed[1] = base[0]*0.9, base[1]*0.9 // head wins only 8 of 10
	if v, _ := verdict(base, mixed, false); v != "within noise" {
		t.Errorf("8/10 pairs: %s", v)
	}
	if v, _ := verdict(base, base, false); v != "within noise" {
		t.Errorf("identical sides: %s", v)
	}
}

// spin burns CPU in the benchmark's own package.
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x = mem.Mix64(x)
		}
	}
	return x
}

func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares([]*profile{p})
	if err != nil {
		t.Fatal(err)
	}
	if shares["bench"]+shares["mem"]+shares["go"] < 0.8 {
		t.Errorf("spin loop attributed to %v", shares)
	}
	for pkg, want := range map[string]string{
		"chrome/internal/cache/mono.(*LRUCache).Access":              "cache",
		"chrome/internal/chrome.(*qview).gatherRows":                 "chrome",
		"chrome/internal/chrome/parallel.(*Learner[go.shape.x]).Run": "chrome",
		"runtime.mallocgc":  "go",
		"main.(*client).op": "bench",
		"example.com/x.F":   "unattributed",
	} {
		if g := groupOf(funcPackage(pkg)); g != want {
			t.Errorf("%s: group %s, want %s", pkg, g, want)
		}
	}
}
