package sim

// Full-system checkpointing (DESIGN.md §10): SaveCheckpoint captures every
// piece of mutable simulation state — core pipelines and replay cursors,
// all cache levels, the LLC policy, prefetcher tables, MSHRs, DRAM, and the
// C-AMAT monitor — so that restoring into an identically constructed System
// and running forward is record-for-record identical to never having
// stopped (TestCheckpointedResumeMatchesStraightRun). Restores are strictly
// in place: the live system keeps its wired closures (obstruction
// callbacks, memory functions), and the checkpoint only overwrites state.
//
// On-disk framing mirrors the CHRC trace format's hardening: magic +
// version + length + FNV-1a checksum ahead of the payload, with every
// malformed input rejected by ErrBadCheckpoint (FuzzReadCheckpoint).

import (
	"errors"
	"fmt"
	"io"

	"chrome/internal/cache"
	"chrome/internal/mem"
	"chrome/internal/state"
)

// ErrBadCheckpoint reports a malformed, corrupt, or mismatched checkpoint.
var ErrBadCheckpoint = errors.New("sim: bad checkpoint")

var checkpointMagic = [4]byte{'C', 'H', 'K', 'P'}

// checkpointVersion is the current .chkp format version.
const checkpointVersion = 1

// fingerprint summarizes the construction parameters a checkpoint is only
// valid for: geometry, timing, core count, access mode, and the installed
// policy/prefetcher names. Factories (function fields) are deliberately
// excluded — their *products'* names stand in for them.
func (s *System) fingerprint() string {
	c := s.cfg
	return fmt.Sprintf(
		"cores=%d cpu=%d/%d l1=%dx%d@%d m%d l2=%dx%d@%d m%d llc=%dx%d@%d m%d dram=%+v pfq=%d camat=%d mode=%s policy=%s l1pf=%s l2pf=%s",
		c.Cores, c.CPU.Width, c.CPU.ROB,
		c.L1Sets, c.L1Ways, c.L1Latency, c.L1MSHRs,
		c.L2Sets, c.L2Ways, c.L2Latency, c.L2MSHRs,
		c.LLCSets, c.LLCWays, c.LLCLatency, c.LLCMSHRs,
		c.DRAM, c.PrefetchQueueMax, c.CAMATEpoch,
		s.AccessMode(), s.LLC().Policy().Name(),
		s.l1pf[0].Name(), s.l2pf[0].Name(),
	)
}

// saveState serializes the full mutable state in a fixed component order.
func (s *System) saveState(enc *state.Enc) error {
	enc.String(s.fingerprint())
	for i, c := range s.cores {
		if err := c.SaveState(enc); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	for _, lv := range s.checkpointLevels() {
		if err := lv.level.SaveState(enc); err != nil {
			return fmt.Errorf("%s: %w", lv.name, err)
		}
		pck, ok := lv.level.Policy().(cache.Checkpointable)
		if !ok {
			return fmt.Errorf("%s policy %s does not support checkpointing", lv.name, lv.level.Policy().Name())
		}
		if err := pck.SaveState(enc); err != nil {
			return fmt.Errorf("%s policy: %w", lv.name, err)
		}
	}
	for i := range s.cores {
		for _, pf := range []any{s.l1pf[i], s.l2pf[i]} {
			ck, ok := pf.(cache.Checkpointable)
			if !ok {
				return fmt.Errorf("core %d prefetcher does not support checkpointing", i)
			}
			if err := ck.SaveState(enc); err != nil {
				return fmt.Errorf("core %d prefetcher: %w", i, err)
			}
		}
		s.l1m[i].saveState(enc)
		s.l2m[i].saveState(enc)
	}
	s.llcm.saveState(enc)
	s.dram.saveState(enc)
	if err := s.mon.SaveState(enc); err != nil {
		return err
	}
	enc.U64(s.l1PrefetchesIssued)
	enc.U64(s.l2PrefetchesIssued)
	return nil
}

// loadState restores the state saved by saveState, in the same order.
func (s *System) loadState(dec *state.Dec) error {
	fp := dec.String()
	if err := dec.Err(); err != nil {
		return err
	}
	if live := s.fingerprint(); fp != live {
		return fmt.Errorf("checkpoint configuration %q does not match live system %q", fp, live)
	}
	for i, c := range s.cores {
		if err := c.LoadState(dec); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	for _, lv := range s.checkpointLevels() {
		if err := lv.level.LoadState(dec); err != nil {
			return fmt.Errorf("%s: %w", lv.name, err)
		}
		pck, ok := lv.level.Policy().(cache.Checkpointable)
		if !ok {
			return fmt.Errorf("%s policy %s does not support checkpointing", lv.name, lv.level.Policy().Name())
		}
		if err := pck.LoadState(dec); err != nil {
			return fmt.Errorf("%s policy: %w", lv.name, err)
		}
	}
	for i := range s.cores {
		for _, pf := range []any{s.l1pf[i], s.l2pf[i]} {
			ck, ok := pf.(cache.Checkpointable)
			if !ok {
				return fmt.Errorf("core %d prefetcher does not support checkpointing", i)
			}
			if err := ck.LoadState(dec); err != nil {
				return fmt.Errorf("core %d prefetcher: %w", i, err)
			}
		}
		if err := s.l1m[i].loadState(dec); err != nil {
			return fmt.Errorf("core %d L1 MSHR: %w", i, err)
		}
		if err := s.l2m[i].loadState(dec); err != nil {
			return fmt.Errorf("core %d L2 MSHR: %w", i, err)
		}
	}
	if err := s.llcm.loadState(dec); err != nil {
		return fmt.Errorf("LLC MSHR: %w", err)
	}
	if err := s.dram.loadState(dec); err != nil {
		return err
	}
	if err := s.mon.LoadState(dec); err != nil {
		return err
	}
	s.l1PrefetchesIssued = dec.U64()
	s.l2PrefetchesIssued = dec.U64()
	return dec.Err()
}

// checkpointLevels enumerates the live cache levels with stable labels, in
// the fixed serialization order (per-core L1 then L2, then the LLC).
type namedLevel struct {
	name  string
	level *cache.Cache
}

func (s *System) checkpointLevels() []namedLevel {
	var out []namedLevel
	for i := range s.cores {
		out = append(out, namedLevel{fmt.Sprintf("core %d L1", i), s.L1(i)})
		out = append(out, namedLevel{fmt.Sprintf("core %d L2", i), s.L2(i)})
	}
	return append(out, namedLevel{"LLC", s.LLC()})
}

// saveState serializes an MSHR file: the outstanding-completion heap and
// the stall counter (the simcheck accounting is diagnostic-only and is
// deliberately not captured).
func (m *mshr) saveState(enc *state.Enc) {
	enc.Int(m.cap)
	enc.Int(len(m.busy))
	for _, c := range m.busy {
		enc.U64(c.Uint64())
	}
	enc.U64(m.stalls)
}

func (m *mshr) loadState(dec *state.Dec) error {
	if !dec.ExpectLen("MSHR capacity", dec.Int(), m.cap) {
		return dec.Err()
	}
	n := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if n < 0 || n > m.cap {
		return fmt.Errorf("%w: MSHR has %d outstanding entries with capacity %d", state.ErrCorrupt, n, m.cap)
	}
	m.busy = m.busy[:0]
	for i := 0; i < n; i++ {
		m.busy = append(m.busy, mem.CycleOf(dec.U64()))
	}
	m.stalls = dec.U64()
	return dec.Err()
}

// saveState serializes the DRAM model's channel windows, open rows, and
// transfer counters. The OnAccess observer is wiring, not state.
func (d *DRAM) saveState(enc *state.Enc) {
	enc.Int(len(d.chans))
	for i := range d.chans {
		enc.U64(d.chans[i].epoch)
		enc.U64(d.chans[i].work)
	}
	enc.Int(len(d.openRow))
	for _, r := range d.openRow {
		enc.U64(r)
	}
	enc.U64(d.reads)
	enc.U64(d.writes)
	enc.U64(d.busyWait)
}

func (d *DRAM) loadState(dec *state.Dec) error {
	if !dec.ExpectLen("DRAM channels", dec.Int(), len(d.chans)) {
		return dec.Err()
	}
	for i := range d.chans {
		d.chans[i].epoch = dec.U64()
		d.chans[i].work = dec.U64()
	}
	if !dec.ExpectLen("DRAM banks", dec.Int(), len(d.openRow)) {
		return dec.Err()
	}
	for i := range d.openRow {
		d.openRow[i] = dec.U64()
	}
	d.reads = dec.U64()
	d.writes = dec.U64()
	d.busyWait = dec.U64()
	return dec.Err()
}

// fnv1a digests a payload with the same FNV-1a parameters the CHRC trace
// format uses.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range b {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return h
}

// SaveCheckpoint writes the system's full state as a framed .chkp stream.
// It errors without writing when any component cannot be checkpointed
// (live generators, measurement trackers).
func (s *System) SaveCheckpoint(w io.Writer) error {
	enc := state.NewEnc(1 << 20)
	if err := s.saveState(enc); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	payload := enc.Bytes()
	header := make([]byte, 0, 24)
	header = append(header, checkpointMagic[:]...)
	header = append(header, checkpointVersion, 0, 0, 0)
	var lenChk [16]byte
	putU64 := func(b []byte, v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte((v >> (8 * i)) & 0xFF)
		}
	}
	putU64(lenChk[:8], uint64(len(payload)))
	putU64(lenChk[8:], fnv1a(payload))
	header = append(header, lenChk[:]...)
	if _, err := w.Write(header); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// LoadCheckpoint restores the system's state from a .chkp stream written by
// SaveCheckpoint against an identically constructed system. Every framing,
// checksum, or shape violation is rejected with ErrBadCheckpoint.
func (s *System) LoadCheckpoint(r io.Reader) error {
	var header [24]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return fmt.Errorf("%w: short header: %v", ErrBadCheckpoint, err)
	}
	if [4]byte(header[:4]) != checkpointMagic {
		return fmt.Errorf("%w: bad magic %q", ErrBadCheckpoint, header[:4])
	}
	if header[4] != checkpointVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, header[4])
	}
	getU64 := func(b []byte) uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(b[i]) << (8 * i)
		}
		return v
	}
	size := getU64(header[8:16])
	sum := getU64(header[16:24])
	// A forged length cannot force a huge allocation: read incrementally in
	// bounded chunks and let truncation surface as a short read.
	const chunk = 1 << 20
	payload := make([]byte, 0, min(size, chunk))
	for uint64(len(payload)) < size {
		n := size - uint64(len(payload))
		if n > chunk {
			n = chunk
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("%w: truncated payload: %v", ErrBadCheckpoint, err)
		}
		payload = append(payload, buf...)
	}
	if got := fnv1a(payload); got != sum {
		return fmt.Errorf("%w: checksum mismatch (stored %016x, computed %016x)", ErrBadCheckpoint, sum, got)
	}
	dec := state.NewDec(payload)
	if err := s.loadState(dec); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if err := dec.Close(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return nil
}
