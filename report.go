package nocout

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PointResult pairs a sweep point with its measurement.
type PointResult struct {
	Point  Point  `json:"point"`
	Result Result `json:"result"`
	// Err records the point's failure when the Runner ran in KeepGoing
	// mode (or the entry was merged from a campaign store); empty for a
	// successful measurement. A failed point's Result is the zero value.
	Err string `json:"error,omitempty"`
	// Skipped marks a point this runner neither computed nor found
	// cached — another campaign worker held its lease; the campaign
	// merge step fills it in from the shared store.
	Skipped bool `json:"skipped,omitempty"`
}

// Report holds a sweep's structured results, keyed by point and stored in
// sweep order. It renders as a text Table, JSON, or CSV.
type Report struct {
	Title   string        `json:"title,omitempty"`
	Quality Quality       `json:"quality"`
	Results []PointResult `json:"results"`
}

// GetPoint returns the full point-result pair for a (variant, workload,
// cores) cell — use it when the point's resolved Config matters (e.g.
// feeding the area model). Cores follows Point.Cores (0 when the sweep
// did not set core counts).
func (r *Report) GetPoint(variant, workloadName string, cores int) (PointResult, bool) {
	for _, pr := range r.Results {
		p := pr.Point
		if p.Variant == variant && p.Workload == workloadName && p.Cores == cores {
			return pr, true
		}
	}
	return PointResult{}, false
}

// Get returns the result for a (variant, workload, cores) cell.
func (r *Report) Get(variant, workloadName string, cores int) (Result, bool) {
	pr, ok := r.GetPoint(variant, workloadName, cores)
	return pr.Result, ok
}

// MustGet is Get for cells the sweep is known to contain (its own specs).
func (r *Report) MustGet(variant, workloadName string, cores int) Result {
	res, ok := r.Get(variant, workloadName, cores)
	if !ok {
		panic(fmt.Sprintf("nocout: report %q has no point %s|%s|%d", r.Title, variant, workloadName, cores))
	}
	return res
}

// WriteJSON encodes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// csvHeader is the flat per-point schema WriteCSV emits.
var csvHeader = []string{
	"variant", "design", "hierarchy", "workload", "cores", "link_bits", "seed",
	"active_cores", "agg_ipc", "per_core_ipc", "avg_net_latency_cy",
	"snoop_rate", "llc_miss_rate", "l1i_mpki", "l1d_mpki", "noc_power_w",
	"error",
}

// csvOpenHeader extends csvHeader with the request-latency columns.
// They appear only when some row is open-system, so every closed-loop
// report stays byte-identical to the pre-opensys schema.
var csvOpenHeader = []string{
	"req_offered", "req_completed", "req_dropped",
	"req_mean_cy", "req_p50_cy", "req_p95_cy", "req_p99_cy", "req_mean_queue",
}

// hasOpenRows reports whether any measured point is open-system.
func (r *Report) hasOpenRows() bool {
	for _, pr := range r.Results {
		if pr.Result.ReqLatency != nil {
			return true
		}
	}
	return false
}

// WriteCSV encodes the report as one CSV row per point.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	open := r.hasOpenRows()
	header := csvHeader
	if open {
		header = append(append([]string{}, csvHeader...), csvOpenHeader...)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, pr := range r.Results {
		p, res := pr.Point, pr.Result
		row := []string{
			p.Variant, p.Design.String(), p.Hierarchy.String(), p.Workload,
			strconv.Itoa(p.Config.Cores), strconv.Itoa(p.Config.LinkBits),
			strconv.FormatUint(p.Seed, 10),
			strconv.Itoa(res.ActiveCores), f(res.AggIPC), f(res.PerCoreIPC),
			f(res.AvgNetLatency), f(res.SnoopRate), f(res.LLCMissRate),
			f(res.L1IMPKI), f(res.L1DMPKI), f(res.NoCPower.Total()),
			pr.Err,
		}
		if open {
			if rl := res.ReqLatency; rl != nil {
				row = append(row,
					strconv.FormatInt(rl.Arrivals, 10),
					strconv.FormatInt(rl.Completed, 10),
					strconv.FormatInt(rl.Dropped, 10),
					f(rl.MeanCy),
					strconv.FormatInt(rl.P50, 10),
					strconv.FormatInt(rl.P95, 10),
					strconv.FormatInt(rl.P99, 10),
					f(rl.MeanQueue))
			} else {
				row = append(row, "", "", "", "", "", "", "", "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// hasFailedRows reports whether any point failed.
func (r *Report) hasFailedRows() bool {
	for _, pr := range r.Results {
		if pr.Err != "" {
			return true
		}
	}
	return false
}

// Table renders the report as a generic per-point text table. Request-
// latency columns appear only when some row is open-system, and an error
// column only when some point failed, so a failed point's zero Result
// never reads as a measurement; a closed-loop report without failures
// renders exactly as it always has.
func (r *Report) Table() *Table {
	title := r.Title
	if title == "" {
		title = "sweep report"
	}
	open, failed := r.hasOpenRows(), r.hasFailedRows()
	t := &Table{Title: title,
		Header: []string{"variant", "workload", "cores", "agg IPC", "IPC/core", "net lat", "NoC W"}}
	if open {
		t.Header = append(t.Header, "req p50", "req p95", "req p99", "drops")
	}
	if failed {
		t.Header = append(t.Header, "error")
	}
	for _, pr := range r.Results {
		p, res := pr.Point, pr.Result
		row := []string{p.Variant, p.Workload, strconv.Itoa(p.Config.Cores),
			f2(res.AggIPC), f3(res.PerCoreIPC), f2(res.AvgNetLatency),
			f2(res.NoCPower.Total())}
		if open {
			if rl := res.ReqLatency; rl != nil {
				row = append(row,
					strconv.FormatInt(rl.P50, 10),
					strconv.FormatInt(rl.P95, 10),
					strconv.FormatInt(rl.P99, 10),
					strconv.FormatInt(rl.Dropped, 10))
			} else {
				row = append(row, "", "", "", "")
			}
		}
		if failed {
			row = append(row, pr.Err)
		}
		t.AddRow(row...)
	}
	return t
}

// Table is a simple text table; one of the Report renderers and the shape
// every Figure*Result renders into.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	// Size every column over the header and all rows: a row may be wider
	// than the header, or the table may have no header at all.
	var widths []int
	for _, r := range append([][]string{t.Header}, t.Rows...) {
		for i, c := range r {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], len(c))
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}
