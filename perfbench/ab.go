package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The paired A/B helper runs the benchmark in a base checkout and a head
// checkout in alternating order, pair after pair, pair i on seed i, each
// run for BENCHMARK.json's run_seconds, and judges every end-to-end metric by the rule of a performance
// claim: head wins only if it is better in at least nine tenths of all
// pairs (ties count for neither side) and the medians differ by more
// than the base's interquartile spread; a loss is the mirror image;
// anything else is within noise.

// benchmarkFile is the part of BENCHMARK.json the helper reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

func runAB(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench ab", flag.ContinueOnError)
	base := fs.String("base", "", "root of the base checkout")
	head := fs.String("head", ".", "root of the head checkout")
	wl := fs.String("workload", wlSimChrome, "workload to compare")
	pairs := fs.Int("pairs", 10, "number of base/head pairs (at least 10); pair i runs seed i")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *pairs < 10 {
		fmt.Fprintln(os.Stderr, "perfbench ab: need -base and at least 10 -pairs")
		return 2
	}
	bf, err := readBenchmarkFile(filepath.Join(*head, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench ab:", err)
		return 2
	}
	secs := bf.RunSeconds
	dirs := [2]string{*base, *head}
	vals := [2]map[string][]float64{{}, {}}
	for i := 1; i <= *pairs; i++ {
		order := []int{0, 1}
		if i%2 == 0 {
			order = []int{1, 0}
		}
		for _, side := range order {
			res, err := runCheckout(dirs[side], *wl, uint64(i), secs)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench ab: pair %d, %s: %v\n", i, dirs[side], err)
				return 1
			}
			for name, mv := range res.Metrics {
				vals[side][name] = append(vals[side][name], mv.Value)
			}
		}
	}
	fmt.Fprintf(stdout, "%s: %d pairs, %ds runs, base %s, head %s\n", *wl, *pairs, secs, *base, *head)
	fmt.Fprintf(stdout, "%-14s %-32s %-32s %-9s %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "head wins", "verdict")
	for _, m := range bf.EndToEnd {
		b, h := vals[0][m.Name], vals[1][m.Name]
		v, wins := verdict(b, h, m.Better == "lower")
		fmt.Fprintf(stdout, "%-14s %-32s %-32s %2d/%-6d %s\n", m.Name, describe(b), describe(h), wins, len(b), v)
	}
	return 0
}

// runCheckout runs the benchmark once in the checkout at dir and returns
// its result line.
func runCheckout(dir, wl string, seed uint64, secs int) (result, error) {
	var res result
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", wl, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(secs), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return res, errors.New("the run reported incorrect results")
	}
	return res, nil
}

// verdict judges head against base, pair by pair.
func verdict(base, head []float64, lowerBetter bool) (string, int) {
	n := min(len(base), len(head))
	if n == 0 {
		return "no data", 0
	}
	better := func(a, b float64) bool { // a better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch {
		case better(head[i], base[i]):
			wins++
		case better(base[i], head[i]):
			losses++
		}
	}
	bq, hq := quartiles(base), quartiles(head)
	differ := abs(hq[1]-bq[1]) > bq[2]-bq[0]
	switch {
	case wins*10 >= 9*n && differ && better(hq[1], bq[1]):
		return "win", wins
	case losses*10 >= 9*n && differ && better(bq[1], hq[1]):
		return "loss", wins
	}
	return "within noise", wins
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method); a single value is all three.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return [3]float64{}
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// describe renders a median with its quartiles.
func describe(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
