package workload

import (
	"fmt"
	"strings"
	"sync"
)

// The workload registry, mirroring the chip package's Organization
// registry: every string a CLI flag, sweep spec, or config file can carry
// resolves here, case-insensitively and alias-aware. Registration is rare
// and reads are hot (every sweep expansion), so an RWMutex guards
// it; safe for concurrent use from experiment worker pools.
var (
	regMu   sync.RWMutex
	regList []Workload
	regKeys = map[string]Workload{}
)

func init() {
	// The paper's six, in figure order, with their common CLI spellings.
	for _, b := range []struct {
		p       Params
		aliases []string
	}{
		{DataServing, []string{"data-serving", "cassandra"}},
		{MapReduceC, []string{"mapred-c"}},
		{MapReduceW, []string{"mapred-w"}},
		{SATSolver, []string{"sat-solver", "sat"}},
		{WebFrontend, []string{"web-frontend", "frontend"}},
		{WebSearch, []string{"web-search", "websearch", "search"}},
	} {
		mustRegister(Synth(b.p, b.aliases...))
	}
	// Worked examples of the heterogeneous families, registered through
	// the same public path user workloads use. The Figure* studies pin the
	// builtin six explicitly, so these never shift regenerated paper
	// numbers.
	mustRegister(ConsolidatedMix())
	mustRegister(MapReducePhased())
}

// Register adds a workload to the registry so that every name-based entry
// point (Parse, sweep specs, CLI flags) can resolve it. The name and
// aliases must be non-empty and unique case-insensitively, and must not
// contain ':' (reserved for schemes like "trace:<path>"). Safe for
// concurrent use.
func Register(w Workload) error {
	name := strings.TrimSpace(w.Name())
	if name == "" {
		return fmt.Errorf("workload: Register needs a name")
	}
	keys := []string{strings.ToLower(name)}
	for _, a := range w.Aliases() {
		a = strings.ToLower(strings.TrimSpace(a))
		if a == "" {
			return fmt.Errorf("workload: %q has an empty alias", name)
		}
		if a != keys[0] {
			keys = append(keys, a)
		}
	}
	for _, k := range keys {
		if strings.Contains(k, ":") {
			return fmt.Errorf("workload: name %q contains ':' (reserved for schemes)", k)
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	for _, k := range keys {
		if prev, dup := regKeys[k]; dup {
			return fmt.Errorf("workload: name %q already registered by %s", k, prev.Name())
		}
	}
	regList = append(regList, w)
	for _, k := range keys {
		regKeys[k] = w
	}
	return nil
}

// mustRegister is Register for the package's own init-time registrations.
func mustRegister(w Workload) Workload {
	if err := Register(w); err != nil {
		panic(err)
	}
	return w
}

// All returns every registered workload: the paper's six in figure order,
// then the example families, then user registrations in registration
// order.
func All() []Workload {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Workload, len(regList))
	copy(out, regList)
	return out
}

// Names returns the registered workload names in registration order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, len(regList))
	for i, w := range regList {
		names[i] = w.Name()
	}
	return names
}

// TraceScheme prefixes a trace file path to form a workload name that
// Parse resolves by loading the file: "trace:/path/to/ws.noctrace".
const TraceScheme = "trace:"

// Workload name schemes beyond the builtin "trace:": a scheme owns every
// name spelled "<scheme>:<spec>" and parses the spec into a Workload.
// The opensys package registers "opensys:" this way.
var (
	schemeMu sync.RWMutex
	schemes  = map[string]func(spec string) (Workload, error){}
)

// RegisterScheme adds a workload name scheme: Parse hands every
// "<name>:<spec>" string to fn (spec is the part after the colon,
// untrimmed). The scheme name is case-insensitive, must be non-empty,
// colon-free, and not already taken ("trace" is builtin). Parsed
// workloads must Name() themselves back to a string the scheme resolves,
// so sweep points and campaign manifests rehydrate by name alone.
func RegisterScheme(name string, fn func(spec string) (Workload, error)) error {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" || strings.Contains(key, ":") {
		return fmt.Errorf("workload: invalid scheme name %q", name)
	}
	if key == "trace" {
		return fmt.Errorf("workload: scheme %q is builtin", key)
	}
	if fn == nil {
		return fmt.Errorf("workload: scheme %q needs a parse function", key)
	}
	schemeMu.Lock()
	defer schemeMu.Unlock()
	if _, dup := schemes[key]; dup {
		return fmt.Errorf("workload: scheme %q already registered", key)
	}
	schemes[key] = fn
	return nil
}

// MustRegisterScheme is RegisterScheme for init-time registrations.
func MustRegisterScheme(name string, fn func(spec string) (Workload, error)) {
	if err := RegisterScheme(name, fn); err != nil {
		panic(err)
	}
}

// Parse resolves a workload from any registered spelling — names and
// aliases, case-insensitively ("data-serving", "websearch", "WEB Search")
// — loads a recorded trace via the "trace:<path>" scheme, or hands
// "<scheme>:<spec>" names to their registered scheme (e.g.
// "opensys:arrival=poisson,...").
func Parse(s string) (Workload, error) {
	trimmed := strings.TrimSpace(s)
	if strings.HasPrefix(strings.ToLower(trimmed), TraceScheme) {
		t, err := OpenTraceFile(trimmed[len(TraceScheme):])
		if err != nil {
			return nil, err
		}
		return t, nil
	}
	if i := strings.IndexByte(trimmed, ':'); i > 0 {
		schemeMu.RLock()
		fn := schemes[strings.ToLower(trimmed[:i])]
		schemeMu.RUnlock()
		if fn != nil {
			return fn(trimmed[i+1:])
		}
	}
	key := strings.ToLower(trimmed)
	regMu.RLock()
	w, ok := regKeys[key]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (want %s, an alias, trace:<path>, or a registered scheme)",
			s, strings.Join(Names(), " | "))
	}
	return w, nil
}
