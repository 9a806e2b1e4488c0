// Package ledger is the benchmark's shared vocabulary: the catalogue of
// metrics with their units, directions and regression bounds, the JSON
// ledger that records a set of runs with the host they ran on, and the
// statistics and verdict rule the comparator applies to two ledgers.
package ledger

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// Metric describes one reported number. Bound is the share of the base
// median by which an end-to-end metric may worsen before a comparison
// calls it a regression; per-layer metrics carry none.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// Lower reports whether smaller values of m are better.
func (m Metric) Lower() bool { return m.Better == "lower" }

// EndToEnd are the metrics every untraced run reports, on every workload.
var EndToEnd = []Metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ns_per_simcycle", Unit: "ns/cycle", Better: "lower", Bound: 0.25},
	{Name: "sim_kips", Unit: "kinstr/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// PerLayer are the metrics every traced run reports, named
// <layer>.<quantity> after the repository's modules.
var PerLayer = []Metric{
	{Name: "runner.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "chip.build_ms", Unit: "ms", Better: "lower"},
	{Name: "chip.prewarm_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.kernel_frac", Unit: "ratio", Better: "lower"},
	{Name: "sim.kernel_ns_per_cycle", Unit: "ns/cycle", Better: "lower"},
	{Name: "sim.ticks_per_kcycle", Unit: "1/kcycle", Better: "lower"},
	{Name: "sim.shard_speedup", Unit: "ratio", Better: "higher"},
	{Name: "noc.router_ns_per_tick", Unit: "ns", Better: "lower"},
	{Name: "noc.router_ticks_per_kcycle", Unit: "1/kcycle", Better: "lower"},
	{Name: "noc.router_frac", Unit: "ratio", Better: "lower"},
	{Name: "noc.ni_ns_per_tick", Unit: "ns", Better: "lower"},
	{Name: "noc.ni_ticks_per_kcycle", Unit: "1/kcycle", Better: "lower"},
	{Name: "noc.ni_frac", Unit: "ratio", Better: "lower"},
	{Name: "coherence.l1_ns_per_tick", Unit: "ns", Better: "lower"},
	{Name: "coherence.l1_ticks_per_kcycle", Unit: "1/kcycle", Better: "lower"},
	{Name: "coherence.dir_ns_per_tick", Unit: "ns", Better: "lower"},
	{Name: "coherence.dir_ticks_per_kcycle", Unit: "1/kcycle", Better: "lower"},
	{Name: "coherence.frac", Unit: "ratio", Better: "lower"},
	{Name: "mem.ns_per_tick", Unit: "ns", Better: "lower"},
	{Name: "mem.ticks_per_kcycle", Unit: "1/kcycle", Better: "lower"},
	{Name: "mem.frac", Unit: "ratio", Better: "lower"},
	{Name: "cpu.ns_per_tick", Unit: "ns", Better: "lower"},
	{Name: "cpu.ticks_per_kcycle", Unit: "1/kcycle", Better: "lower"},
	{Name: "cpu.frac", Unit: "ratio", Better: "lower"},
	{Name: "workload.stream_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "workload.open_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "workload.noc3_encode_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "workload.noc3_decode_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "workload.noc3_bytes_per_instr", Unit: "B", Better: "lower"},
	{Name: "ckpt.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.bytes", Unit: "B", Better: "lower"},
	{Name: "ckpt.restore_vs_warmup", Unit: "ratio", Better: "lower"},
	{Name: "campaign.cold_overhead_ms_per_point", Unit: "ms", Better: "lower"},
	{Name: "campaign.hit_ms_per_point", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.timer_ns", Unit: "ns", Better: "lower"},
}

// Value is one reported metric value, as the result line prints it.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the object a run prints as the last line of its output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Run is one run of one workload as the ledger records it: the result
// line plus the run's identity, the per-repetition samples each metric
// was the median of, and values reported beside the metrics.
type Run struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Traced   bool                 `json:"traced,omitempty"`
	Elapsed  float64              `json:"elapsed_s,omitempty"` // the run's process, start to exit
	Samples  map[string][]float64 `json:"samples,omitempty"`
	Notes    map[string]Value     `json:"notes,omitempty"`
	Failures []string             `json:"failures,omitempty"`
	Result
}

// Host describes the machine a ledger was measured on.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	OS         string `json:"os"`
}

// Ledger is a set of runs with the host and settings they ran under.
type Ledger struct {
	Host    Host  `json:"host"`
	Seconds int   `json:"seconds"`
	Runs    []Run `json:"runs"`
}

// Read loads a ledger file.
func Read(path string) (*Ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("ledger %s: %w", path, err)
	}
	return &l, nil
}

// Write stores the ledger as indented JSON.
func (l *Ledger) Write(path string) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Values collects metric across the untraced runs of workload, in run
// order.
func (l *Ledger) Values(workload, metric string) []float64 {
	var out []float64
	for _, r := range l.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// Workloads lists the workloads of the ledger's runs in first-seen order.
func (l *Ledger) Workloads() []string {
	var out []string
	for _, r := range l.Runs {
		if !slices.Contains(out, r.Workload) {
			out = append(out, r.Workload)
		}
	}
	return out
}

// FailureShare is the failed share of all operations the runs attempted.
func (l *Ledger) FailureShare() float64 {
	var att, failed int
	for _, r := range l.Runs {
		att += r.Attempted
		failed += r.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}

// Median returns the median of vs (0 for none).
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles of vs by the method
// Python's statistics.quantiles(vs, n=4) uses by default ("exclusive").
// A single value is its own quartiles.
func Quartiles(vs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(vs))
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// Spread is the distance between the quartiles as a share of the median.
func Spread(vs []float64) float64 {
	med := Median(vs)
	if med == 0 {
		return 0
	}
	q1, q3 := Quartiles(vs)
	return (q3 - q1) / math.Abs(med)
}

// Verdicts of a comparison.
const (
	Improved   = "improved"
	Unchanged  = "unchanged"
	Regressed  = "regressed"
	Unresolved = "unresolved"
)

// Change is the comparison of one metric between a base and a new set
// of runs.
type Change struct {
	BaseMedian, NewMedian float64
	// Worse is the share by which the new median is worse than the base
	// median in the metric's direction (negative when better).
	Worse float64
	// Spread is the wider of the two sides' quartile spreads.
	Spread  float64
	Verdict string
}

// Compare applies the benchmark's rule to one metric. When either side's
// run-to-run spread is wider than the bound, only a complete separation
// — every run of one side beating every run of the other — decides;
// otherwise the verdict is unresolved. Within the bound, a median worse by
// more than the bound is a regression, and a gain counts only when the
// medians differ by more than the base's own spread and the new side wins
// at least nine tenths of the run pairs (index-paired, ties counting for
// neither).
func Compare(m Metric, base, cur []float64) Change {
	c := Change{BaseMedian: Median(base), NewMedian: Median(cur)}
	if len(base) == 0 || len(cur) == 0 {
		c.Verdict = Unresolved
		return c
	}
	better := func(a, b float64) bool { // a beats b
		if m.Lower() {
			return a < b
		}
		return a > b
	}
	c.Worse = relWorse(m, c.BaseMedian, c.NewMedian)
	c.Spread = max(Spread(base), Spread(cur))
	if c.Spread > m.Bound {
		switch {
		case separated(m, cur, base):
			c.Verdict = Improved
		case separated(m, base, cur):
			c.Verdict = Regressed
		default:
			c.Verdict = Unresolved
		}
		return c
	}
	switch {
	case c.Worse > m.Bound:
		c.Verdict = Regressed
	case -c.Worse > Spread(base) && winShare(better, base, cur) >= 0.9:
		c.Verdict = Improved
	default:
		c.Verdict = Unchanged
	}
	return c
}

// separated reports whether every value of a beats every value of b.
func separated(m Metric, a, b []float64) bool {
	if m.Lower() {
		return slices.Max(a) < slices.Min(b)
	}
	return slices.Min(a) > slices.Max(b)
}

// relWorse is the share by which cur is worse than base.
func relWorse(m Metric, base, cur float64) float64 {
	d := cur - base
	if !m.Lower() {
		d = -d
	}
	if base == 0 {
		switch {
		case d == 0:
			return 0
		case d > 0:
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	return d / math.Abs(base)
}

// winShare is the share of index-paired runs in which cur beats base.
func winShare(better func(a, b float64) bool, base, cur []float64) float64 {
	n := min(len(base), len(cur))
	wins := 0
	for i := 0; i < n; i++ {
		if better(cur[i], base[i]) {
			wins++
		}
	}
	return float64(wins) / float64(n)
}
