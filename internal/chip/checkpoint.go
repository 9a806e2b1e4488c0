package chip

import (
	"fmt"
	"io"
	"math"

	"nocout/internal/ckpt"
	"nocout/internal/coherence"
	"nocout/internal/noc"
	"nocout/internal/sim"
	"nocout/internal/topo"
	"nocout/internal/workload"
)

// Warm-state checkpointing: Snapshot serializes the complete behavioral
// state of a chip at a step boundary into a ckpt container; Restore
// rebuilds a runnable chip from the same (config, workload) pair and a
// snapshot, at the measurement boundary — all measurement counters are
// zeroed through the same resetMeasurementStats path Warmup uses, so a
// chip restored from a post-Warmup snapshot has a StateHash equal to the
// donor's and executes cycle-for-cycle bit-identically thereafter.
//
// Checkpoints are domain-count-agnostic: link state is serialized in
// consumer-visible order (staged cross-domain entries included), so a
// snapshot taken under one sim-parallelism setting restores under any
// other. Sharded donors snapshot at horizon barriers (between Steps),
// which is the only time their state is globally consistent.

// Section kinds of a chip checkpoint container.
const (
	secMeta  uint64 = 1
	secCores uint64 = 2
	secL1s   uint64 = 3
	secBanks uint64 = 4
	secMCs   uint64 = 5
	secNet   uint64 = 6
)

// msgPayload walks a packet's protocol payload: nil or a
// *coherence.Msg cell.
func msgPayload(p *any, s *ckpt.State) {
	m, _ := (*p).(*coherence.Msg)
	has := m != nil
	s.Bool(&has)
	if !has {
		return
	}
	if s.Loading() {
		m = new(coherence.Msg)
		*p = m
	}
	m.State(s)
}

// meta is a checkpoint's identity section: the Info a listing shows,
// plus the bank and channel counts a restore checks.
type meta struct {
	Info
	banks, channels int
}

// State walks the identity section.
func (m *meta) State(s *ckpt.State) {
	ckpt.Int(s, &m.Cycle)
	ckpt.Uint(s, &m.Design, math.MaxUint8)
	ckpt.Uint(s, &m.Hierarchy, math.MaxUint8)
	ckpt.Int(s, &m.Cores)
	s.U64(&m.Seed)
	ckpt.Int(s, &m.Active)
	ckpt.Int(s, &m.banks)
	ckpt.Int(s, &m.channels)
}

// sections is a chip checkpoint's section table, in container order:
// each kind with the walk of the state it holds. m is the identity
// section's content, which a save fills from the chip and a load decodes
// and checks against it.
var sections = [...]struct {
	kind uint64
	walk func(c *Chip, s *ckpt.State, m *meta) error
}{
	{secMeta, (*Chip).metaState},
	{secCores, func(c *Chip, s *ckpt.State, m *meta) error {
		for _, co := range c.Cores {
			co.State(s, m.Cycle)
			w, ok := co.Stream().(ckpt.Walker)
			if !ok {
				return fmt.Errorf("chip: core %d stream %T does not support checkpointing", co.ID, co.Stream())
			}
			w.State(s)
		}
		return nil
	}},
	{secL1s, func(c *Chip, s *ckpt.State, _ *meta) error {
		for _, l1 := range c.L1s {
			l1.State(s)
		}
		return nil
	}},
	{secBanks, func(c *Chip, s *ckpt.State, _ *meta) error {
		for _, b := range c.Banks {
			b.State(s)
		}
		return nil
	}},
	{secMCs, func(c *Chip, s *ckpt.State, m *meta) error {
		for _, mc := range c.MCs {
			mc.State(s, m.Cycle)
		}
		return nil
	}},
	{secNet, func(c *Chip, s *ckpt.State, m *meta) error {
		// A router network (mesh, torus, cmesh, fbfly, crossbar, NOC-Out)
		// or the ideal fabric.
		switch n := c.Net.(type) {
		case *noc.RouterNetwork:
			n.State(s, m.Cycle, msgPayload)
		case *topo.Ideal:
			n.State(s, msgPayload)
		default:
			return fmt.Errorf("chip: network %T does not support checkpointing", c.Net)
		}
		return nil
	}},
}

// metaState walks the identity section. A load rejects a checkpoint taken
// on a system other than this chip's.
func (c *Chip) metaState(s *ckpt.State, m *meta) error {
	if !s.Loading() {
		*m = meta{
			Info: Info{Cycle: c.NowCycle(), Design: c.Cfg.Design, Hierarchy: c.Cfg.Hierarchy,
				Cores: c.Cfg.Cores, Seed: c.Cfg.Seed, Active: c.active},
			banks: len(c.Banks), channels: len(c.MCs),
		}
	}
	m.State(s)
	if !s.Loading() || s.Err() != nil {
		return nil
	}
	if m.Cycle < 0 {
		return fmt.Errorf("chip: checkpoint cycle %d is negative", m.Cycle)
	}
	if m.Design != c.Cfg.Design || m.Hierarchy != c.Cfg.Hierarchy || m.Cores != c.Cfg.Cores ||
		m.Seed != c.Cfg.Seed || m.Active != c.active || m.banks != len(c.Banks) || m.channels != len(c.MCs) {
		return fmt.Errorf("chip: checkpoint was taken on a different system "+
			"(design %d/%d, hierarchy %d/%d, cores %d/%d, seed %d/%d, active %d/%d, banks %d/%d, channels %d/%d)",
			m.Design, c.Cfg.Design, m.Hierarchy, c.Cfg.Hierarchy, m.Cores, c.Cfg.Cores,
			m.Seed, c.Cfg.Seed, m.Active, c.active, m.banks, len(c.Banks), m.channels, len(c.MCs))
	}
	return nil
}

// Snapshot writes the chip's complete behavioral state to w. The chip
// must be between steps (sharded chips: at a horizon barrier, which
// Warmup/Run always end on). Measurement statistics are not part of a
// snapshot — Restore re-zeroes them — so Snapshot is meant for the
// measurement boundary right after Warmup.
func (c *Chip) Snapshot(w io.Writer) error {
	// Settle every component's lazy accounting at the snapshot cycle, so
	// each serialized lastSeen equals the snapshot cycle (a load checks
	// it) and the restored chip's first (re-armed) tick replays no
	// catch-up window.
	c.FlushAll()

	cw := ckpt.NewWriter(w)
	var e ckpt.Enc
	var m meta
	s := ckpt.Encoding(&e)
	for _, sec := range sections {
		e.Reset()
		if err := sec.walk(c, s, &m); err != nil {
			return err
		}
		cw.Section(sec.kind, e.Bytes())
	}
	return cw.Err()
}

// Restore builds a chip for (cfg, w, domains) — exactly as NewSharded
// would — and loads a snapshot into it. The snapshot must come from a
// chip built with the same config and workload; the domain count is free
// to differ (checkpoints are kernel-agnostic). The returned chip sits at
// the donor's snapshot cycle with measurement counters zeroed, ready for
// Run.
func Restore(cfg Config, wl workload.Workload, domains int, r io.Reader) (*Chip, error) {
	cont, err := ckpt.Read(r)
	if err != nil {
		return nil, err
	}
	c := NewSharded(cfg, wl, domains)
	var m meta
	for _, sec := range sections {
		if err := readSection(cont, sec.kind, func(s *ckpt.State) error { return sec.walk(c, s, &m) }); err != nil {
			return nil, err
		}
	}
	// The restored chip sits at the measurement boundary: zero the
	// counters through the same path Warmup uses, then move the clock and
	// re-arm every component for the cycle after the snapshot.
	c.resetMeasurementStats()
	c.clock().RestoreAt(m.Cycle)
	return c, nil
}

// Info is a checkpoint's decoded identity, for store listings and
// restore-time validation messages.
type Info struct {
	Design    Design      `json:"design"`
	Hierarchy HierarchyID `json:"hierarchy"`
	Cores     int         `json:"cores"`
	Seed      uint64      `json:"seed"`
	Active    int         `json:"active_cores"`
	Cycle     sim.Cycle   `json:"cycle"`
	Sections  int         `json:"sections"`
}

// Inspect decodes a checkpoint's identity section without building a
// chip — the cheap way to list a checkpoint store's contents.
func Inspect(r io.Reader) (Info, error) {
	cont, err := ckpt.Read(r)
	if err != nil {
		return Info{}, err
	}
	var m meta
	if err := readSection(cont, secMeta, func(s *ckpt.State) error { m.State(s); return nil }); err != nil {
		return Info{}, err
	}
	m.Sections = cont.Len()
	return m.Info, nil
}

// readSection opens the section of the given kind and walks it, then
// checks that the walk decoded all of it and nothing else.
func readSection(cont *ckpt.Container, kind uint64, walk func(s *ckpt.State) error) error {
	for i := 0; i < cont.Len(); i++ {
		if cont.Kind(i) != kind {
			continue
		}
		d, err := cont.Open(i)
		if err != nil {
			return err
		}
		if err := walk(ckpt.Decoding(d)); err != nil {
			return err
		}
		if err := d.Err(); err != nil {
			return fmt.Errorf("chip: section %d: %w", kind, err)
		}
		if d.Remaining() != 0 {
			return fmt.Errorf("chip: section %d has %d trailing bytes", kind, d.Remaining())
		}
		return nil
	}
	return fmt.Errorf("chip: checkpoint has no section of kind %d", kind)
}
