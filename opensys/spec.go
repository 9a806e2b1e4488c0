package opensys

import (
	"fmt"
	"strconv"
	"strings"
)

// The canonical spec is the family's serialized identity: a fixed-order
// comma-separated k=v string behind the "opensys:" scheme. It is what
// derived (rate-swept) instances use as their Name, what campaign
// manifests persist, and the prefix of the behavioral fingerprint — so
// encoding is deterministic and minimal: keys irrelevant to the
// configured arrival process or skew are omitted, floats use the
// shortest round-trip form, and parse(encode(cfg)) == cfg.

// Spec returns the canonical "opensys:..." spec for o's configuration.
func (o *Open) Spec() string {
	var b strings.Builder
	b.WriteString(Scheme)
	b.WriteByte(':')
	first := true
	put := func(k, v string) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	cfg := o.cfg
	put("arrival", cfg.Arrival)
	put("base", cfg.Base)
	put("rate", f(cfg.Rate))
	put("size", strconv.Itoa(cfg.Size))
	put("queue", strconv.Itoa(cfg.Queue))
	switch cfg.Arrival {
	case "mmpp":
		put("ratio", f(cfg.Ratio))
		put("dwell-hi", f(cfg.DwellHi))
		put("dwell-lo", f(cfg.DwellLo))
	case "burst":
		put("hurst", f(cfg.Hurst))
		put("peak", f(cfg.Peak))
	}
	if len(cfg.Phases) > 0 {
		put("phases", phasesSpec(cfg.Phases))
	}
	if cfg.Skew != "uniform" {
		put("skew", cfg.Skew)
		put("grid", strconv.Itoa(cfg.Grid))
		if cfg.Skew == "hotspot" {
			put("hot", strconv.Itoa(cfg.Hot))
			put("hotfrac", f(cfg.HotFrac))
		}
	}
	return b.String()
}

// Parse builds an Open from a spec — either the full "opensys:..." name
// or just the k=v list after the colon (what the scheme registry hands
// over). Unknown keys are errors, not silently ignored, and so is an
// explicit zero for a numeric key: a typo must not quietly fall back to
// a default and poison a sweep.
func Parse(spec string) (*Open, error) {
	body := strings.TrimSpace(spec)
	if i := strings.IndexByte(body, ':'); i >= 0 && strings.EqualFold(strings.TrimSpace(body[:i]), Scheme) {
		body = body[i+1:]
	}
	cfg := Config{}
	seen := map[string]string{}
	for _, field := range strings.Split(body, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("opensys: spec field %q is not key=value", field)
		}
		k = strings.ToLower(strings.TrimSpace(k))
		v = strings.TrimSpace(v)
		if _, dup := seen[k]; dup {
			return nil, fmt.Errorf("opensys: duplicate spec key %q", k)
		}
		seen[k] = v
		var err error
		switch k {
		case "arrival":
			cfg.Arrival = strings.ToLower(v)
		case "base":
			cfg.Base = v
		case "rate":
			cfg.Rate, err = parseFloat(k, v)
		case "size":
			cfg.Size, err = parseInt(k, v)
		case "queue":
			cfg.Queue, err = parseInt(k, v)
		case "ratio":
			cfg.Ratio, err = parseFloat(k, v)
		case "dwell-hi":
			cfg.DwellHi, err = parseFloat(k, v)
		case "dwell-lo":
			cfg.DwellLo, err = parseFloat(k, v)
		case "hurst":
			cfg.Hurst, err = parseFloat(k, v)
		case "peak":
			cfg.Peak, err = parseFloat(k, v)
		case "phases":
			cfg.Phases, err = parsePhases(v)
		case "skew":
			cfg.Skew = strings.ToLower(v)
		case "grid":
			cfg.Grid, err = parseInt(k, v)
		case "hot":
			cfg.Hot, err = parseInt(k, v)
		case "hotfrac":
			cfg.HotFrac, err = parseFloat(k, v)
		default:
			return nil, fmt.Errorf("opensys: unknown spec key %q (have %s)",
				k, strings.Join(sortedPhaseKeys(seen), ", "))
		}
		if err != nil {
			return nil, err
		}
	}
	return New(cfg)
}

// phasesSpec encodes a diurnal schedule as "MULTxCYCLES;MULTxCYCLES".
func phasesSpec(phases []RatePhase) string {
	parts := make([]string, len(phases))
	for i, p := range phases {
		parts[i] = strconv.FormatFloat(p.Mult, 'g', -1, 64) + "x" + strconv.FormatInt(p.Cycles, 10)
	}
	return strings.Join(parts, ";")
}

// parsePhases decodes a "MULTxCYCLES;MULTxCYCLES" diurnal schedule.
func parsePhases(v string) ([]RatePhase, error) {
	var out []RatePhase
	for _, part := range strings.Split(v, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		m, c, ok := strings.Cut(part, "x")
		if !ok {
			return nil, fmt.Errorf("opensys: phase %q is not MULTxCYCLES", part)
		}
		mult, err := strconv.ParseFloat(strings.TrimSpace(m), 64)
		if err != nil {
			return nil, fmt.Errorf("opensys: phase multiplier %q: %w", m, err)
		}
		cycles, err := strconv.ParseInt(strings.TrimSpace(c), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("opensys: phase length %q: %w", c, err)
		}
		out = append(out, RatePhase{Mult: mult, Cycles: cycles})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("opensys: phases %q holds no phases", v)
	}
	return out, nil
}

// parseFloat and parseInt decode a numeric key. Every numeric Config
// field reads zero as "apply the default", so an explicit zero in a spec
// is an error rather than a silent default.
func parseFloat(k, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("opensys: key %s: %w", k, err)
	}
	if f == 0 {
		return 0, errZero(k, v)
	}
	return f, nil
}

func parseInt(k, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("opensys: key %s: %w", k, err)
	}
	if n == 0 {
		return 0, errZero(k, v)
	}
	return n, nil
}

func errZero(k, v string) error {
	return fmt.Errorf("opensys: key %s=%s: zero stands for the default; omit the key instead", k, v)
}
