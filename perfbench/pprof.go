package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The traced run attributes CPU time by package from runtime/pprof CPU
// profiles and lock waits from the runtime mutex profile. This file
// decodes the gzipped profile.proto those write, reading only the fields
// attribution needs: samples, locations, functions and strings.

// profile is a decoded pprof profile.
type profile struct {
	sampleTypes []string // type name of each sample value
	samples     []sample
	locs        map[uint64][]uint64 // location id -> function ids, leaf (innermost inline) first
	funcs       map[uint64]function
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

type function struct {
	name, file string
}

// parseProfile decodes a gzipped profile.proto.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]function{}}
	var strs []string
	var typeIdx []int64
	type rawFunc struct{ id, name, file uint64 }
	var rfs []rawFunc
	err = forFields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			return forFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := forFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return forFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var rf rawFunc
			err := forFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					rf.id = v
				case 2:
					rf.name = v
				case 4:
					rf.file = v
				}
				return nil
			})
			rfs = append(rfs, rf)
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(uint64(t)))
	}
	for _, rf := range rfs {
		p.funcs[rf.id] = function{name: str(rf.name), file: str(rf.file)}
	}
	return p, nil
}

// forFields calls fn for every field of one protobuf message: varint
// fields pass their value, length-delimited ones their bytes.
func forFields(b []byte, fn func(field int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("pprof: unknown wire type %d", wire)
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrived either
// unpacked (one value v, no bytes) or packed (bytes).
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		u, n := uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		packed = packed[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// valueIndex returns the index of the sample value named typ.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("pprof: no %q sample values (have %v)", typ, p.sampleTypes)
}

// frames returns a sample's function frames, leaf first.
func (p *profile) frames(s sample) []function {
	var out []function
	for _, l := range s.locs {
		for _, id := range p.locs[l] {
			out = append(out, p.funcs[id])
		}
	}
	return out
}

// groups attributes CPU time to the benchmark's layers by the package of
// each sample's leaf frame.
var groups = []struct{ group, pkg string }{
	{"cache", "chrome/internal/cache"},
	{"cache", "chrome/internal/cache/mono"},
	{"policy", "chrome/internal/policy"},
	{"chrome", "chrome/internal/chrome"},
	{"chrome", "chrome/internal/chrome/parallel"},
	{"sim", "chrome/internal/sim"},
	{"cpu", "chrome/internal/cpu"},
	{"trace", "chrome/internal/trace"},
	{"trace", "chrome/internal/workload"},
	{"prefetch", "chrome/internal/prefetch"},
	{"camat", "chrome/internal/camat"},
	{"mem", "chrome/internal/mem"},
	{"experiments", "chrome/internal/experiments"},
	{"objcache", "chrome/internal/objcache"},
	{"bench", "main"},
}

// funcPackage returns the import path of a symbol name such as
// "chrome/internal/cache/mono.(*LRUCache).Access".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic type arguments may hold slashes and dots
	}
	dir := ""
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		dir, name = name[:i+1], name[i+1:]
	}
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i]
	}
	return dir + name
}

// groupOf maps a package to its attribution group: a layer, "go" for the
// runtime and standard library, or "unattributed".
func groupOf(pkg string) string {
	for _, g := range groups {
		if g.pkg == pkg {
			return g.group
		}
	}
	if pkg != "" && !strings.Contains(strings.SplitN(pkg, "/", 2)[0], ".") && !strings.HasPrefix(pkg, "chrome/") {
		return "go"
	}
	return "unattributed"
}

// cpuShares returns each group's share of the profiles' CPU time, plus
// the function-level shares of the CHROME Q-table and EQ files.
func cpuShares(profs []*profile) (map[string]float64, error) {
	by := map[string]int64{"unattributed": 0}
	var total int64
	for _, p := range profs {
		vi, err := p.valueIndex("cpu")
		if err != nil {
			return nil, err
		}
		for _, s := range p.samples {
			v := s.values[vi]
			total += v
			fr := p.frames(s)
			if len(fr) == 0 {
				by["unattributed"] += v
				continue
			}
			leaf := fr[0]
			by[groupOf(funcPackage(leaf.name))] += v
			switch {
			case strings.HasSuffix(leaf.file, "internal/chrome/qtable.go"):
				by["chrome.qtable"] += v
			case strings.HasSuffix(leaf.file, "internal/chrome/eq.go"):
				by["chrome.eq"] += v
			}
		}
	}
	out := map[string]float64{}
	if total == 0 {
		return out, nil
	}
	for k, v := range by {
		out[k] = float64(v) / float64(total)
	}
	out["total_cpu_s"] = float64(total) / 1e9
	return out, nil
}

// lockWaitNs sums the mutex profile's contention delay over samples whose
// stack passes through package pkg.
func lockWaitNs(p *profile, pkg string) (int64, error) {
	vi, err := p.valueIndex("delay")
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, s := range p.samples {
		for _, f := range p.frames(s) {
			if funcPackage(f.name) == pkg {
				ns += s.values[vi]
				break
			}
		}
	}
	return ns, nil
}

// sortedShares renders shares as "group=share" pairs, largest first.
func sortedShares(m map[string]float64) string {
	type kv struct {
		k string
		v float64
	}
	var kvs []kv
	for k, v := range m {
		if k != "total_cpu_s" {
			kvs = append(kvs, kv{k, v})
		}
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].v > kvs[j].v })
	var sb strings.Builder
	for i, e := range kvs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%.3f", e.k, e.v)
	}
	return sb.String()
}
