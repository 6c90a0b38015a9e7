package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"chrome/internal/mem"
	"chrome/internal/sim"
	"chrome/internal/workload"
)

// resultGoldens pins the full sim.Result of every registered scheme on one
// heterogeneous 4-core mix per seed, with the default prefetchers, on two
// geometries: the paper's Table V hierarchy over a short window (its LLC
// stays cold, so the cells pin the core, L1/L2, prefetch and DRAM models)
// and the scaled hierarchy over a window long enough for every scheme to
// evict at the LLC. A behavioural change to any of these models moves at
// least one digest; a change meant to move results re-captures them from
// the failure messages and says why.
var resultGoldens = map[string]string{
	"paper/seed1/LRU":         "67ded57b88769460",
	"paper/seed1/Hawkeye":     "84d9a0e33420d2a9",
	"paper/seed1/Glider":      "4f2e37d55ba43a54",
	"paper/seed1/Mockingjay":  "e441b0872a82fefb",
	"paper/seed1/CARE":        "b404386601b4dca6",
	"paper/seed1/CHROME":      "a125dd1f38098d10",
	"paper/seed1/SRRIP":       "0c12d359a25b8719",
	"paper/seed1/DRRIP":       "23ca5e025ebdfe58",
	"paper/seed1/PACMan":      "0b7dad9a21dab56e",
	"paper/seed1/SHiP++":      "2a1c5ab52d3ac4fd",
	"paper/seed7/LRU":         "80006015d6e103b6",
	"paper/seed7/Hawkeye":     "dd3ebc5e22692ef1",
	"paper/seed7/Glider":      "73e4b29e9b451aab",
	"paper/seed7/Mockingjay":  "8d4d7db623fb97d5",
	"paper/seed7/CARE":        "6e6e66d2128f9209",
	"paper/seed7/CHROME":      "c171c6cbe7831744",
	"paper/seed7/SRRIP":       "061ae1260b376017",
	"paper/seed7/DRRIP":       "5cf0223b7126be22",
	"paper/seed7/PACMan":      "f590f34a833d280a",
	"paper/seed7/SHiP++":      "9fdab7b022cb9b33",
	"scaled/seed1/LRU":        "68645691e9b38e88",
	"scaled/seed1/Hawkeye":    "7cc30844f3b05347",
	"scaled/seed1/Glider":     "f85f76697242f230",
	"scaled/seed1/Mockingjay": "739ad37cb4a614bd",
	"scaled/seed1/CARE":       "62c3e4e9275b9c50",
	"scaled/seed1/CHROME":     "6c880ce93576b49c",
	"scaled/seed1/SRRIP":      "e23e60b20a80586c",
	"scaled/seed1/DRRIP":      "34e421fa49d73c29",
	"scaled/seed1/PACMan":     "fbe7b69418ab4af1",
	"scaled/seed1/SHiP++":     "aef3ad6c5358e7df",
	"scaled/seed7/LRU":        "eb10acbd1b6baf56",
	"scaled/seed7/Hawkeye":    "8c25f52afc5a8bb6",
	"scaled/seed7/Glider":     "5039776aae511f97",
	"scaled/seed7/Mockingjay": "be32e2990e79e82b",
	"scaled/seed7/CARE":       "ecd0c719a919cb87",
	"scaled/seed7/CHROME":     "a2f40b4ad082b30d",
	"scaled/seed7/SRRIP":      "7ee03218972e8192",
	"scaled/seed7/DRRIP":      "f4bbd3427b581808",
	"scaled/seed7/PACMan":     "779c0a2b5119dada",
	"scaled/seed7/SHiP++":     "e8c11e119594a12a",
}

// resultDigest hashes the complete Result. %#v renders every field,
// including each float in its shortest round-trip form, so equal digests
// mean bit-identical IPC and C-AMAT plus equal cache and DRAM counters.
func resultDigest(r sim.Result) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%#v", r)))
	return hex.EncodeToString(h[:8])
}

// TestResultGoldens holds every geometry × seed {1, 7} × scheme cell to its
// golden digest.
func TestResultGoldens(t *testing.T) {
	const cores = 4
	geometries := []struct {
		name            string
		cfg             sim.Config
		warmup, measure mem.Instr
	}{
		{"paper", sim.PaperConfig(cores), 2_000, 10_000},
		{"scaled", sim.ScaledConfig(cores), 5_000, 20_000},
	}
	for _, g := range geometries {
		for _, seed := range []uint64{1, 7} {
			mix := workload.HeterogeneousMixes(cores, 1, seed)[0]
			for _, s := range AllSchemes() {
				cfg := g.cfg
				pf := PFDefault()
				cfg.L1Prefetcher = pf.L1
				cfg.L2Prefetcher = pf.L2
				res := sim.New(cfg, mix.Generators(), s.Factory).Run(g.warmup, g.measure)
				key := fmt.Sprintf("%s/seed%d/%s", g.name, seed, s.Name)
				if got, want := resultDigest(res), resultGoldens[key]; got != want {
					t.Errorf("%s: result digest %s, want %s\nresult: %+v", key, got, want, res)
				}
			}
		}
	}
}
