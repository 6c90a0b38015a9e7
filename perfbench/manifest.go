package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// manifest makes every run explain itself: the host, the build, the
// inputs, and where the wall time went.
type manifest struct {
	Workload    string     `json:"workload"`
	Seed        uint64     `json:"seed"`
	Seconds     float64    `json:"seconds"`
	Trace       bool       `json:"trace"`
	GoVersion   string     `json:"go_version"`
	GOMAXPROCS  int        `json:"gomaxprocs"`
	NumCPU      int        `json:"nproc"`
	CPUModel    string     `json:"cpu_model"`
	GitRev      string     `json:"git_rev"`
	Params      any        `json:"params"`
	Phases      phaseTimes `json:"phases"`
	Fingerprint string     `json:"fingerprint,omitempty"`
}

func newManifest(o options, oc outcome) manifest {
	return manifest{
		Workload:    o.workload,
		Seed:        o.seed,
		Seconds:     o.seconds,
		Trace:       o.trace,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		GitRev:      gitRev(),
		Params:      oc.params,
		Phases:      oc.phases,
		Fingerprint: oc.fingerprint,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev returns the VCS revision the toolchain stamped into the binary,
// with a "+dirty" suffix for modified trees, or "unknown" when the
// benchmark was built outside a repository.
func gitRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && rev != "unknown" {
		rev += "+dirty"
	}
	return rev
}
