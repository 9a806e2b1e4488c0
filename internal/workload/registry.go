package workload

import (
	"fmt"
	"strings"
	"sync"

	"nocout/internal/registry"
)

// workloads is the workload registry: every string a CLI flag, sweep
// spec, or config file can carry resolves here, case-insensitively and
// alias-aware. It is the same table type as the chip package's design and
// hierarchy registries; workloads have no handles, so it has no cap.
var workloads = registry.New[Workload](0, registry.Texts{
	NoName:     "workload: Register needs a name",
	EmptyAlias: "workload: %q has an empty alias",
	Taken:      "workload: name %q already registered by %s",
	Unknown:    "workload: unknown workload %[1]q (want %[2]s, an alias, trace:<path>, or a registered scheme)",
})

func init() {
	for _, w := range []Workload{
		// The paper's six, in figure order, with their common CLI spellings.
		Synth(DataServing, "data-serving", "cassandra"),
		Synth(MapReduceC, "mapred-c"),
		Synth(MapReduceW, "mapred-w"),
		Synth(SATSolver, "sat-solver", "sat"),
		Synth(WebFrontend, "web-frontend", "frontend"),
		Synth(WebSearch, "web-search", "websearch", "search"),
		// Worked examples of the heterogeneous families, registered through
		// the same public path user workloads use. The Figure* studies pin
		// the builtin six explicitly, so these never shift regenerated paper
		// numbers.
		ConsolidatedMix(),
		MapReducePhased(),
	} {
		if err := Register(w); err != nil {
			panic(err)
		}
	}
	MustRegisterScheme("trace", LoadTrace)
}

// Register adds a workload to the registry so that every name-based entry
// point (Parse, sweep specs, CLI flags) can resolve it. The name and
// aliases must be non-empty and unique case-insensitively, and must not
// contain ':' (reserved for schemes like "trace:<path>"). Safe for
// concurrent use.
func Register(w Workload) error {
	for _, k := range append([]string{w.Name()}, w.Aliases()...) {
		if k = strings.ToLower(strings.TrimSpace(k)); strings.Contains(k, ":") {
			return fmt.Errorf("workload: name %q contains ':' (reserved for schemes)", k)
		}
	}
	_, err := workloads.Add(w)
	return err
}

// All returns every registered workload: the paper's six in figure order,
// then the example families, then user registrations in registration
// order.
func All() []Workload { return workloads.All() }

// Names returns the registered workload names in registration order.
func Names() []string { return workloads.Names() }

// TraceScheme prefixes a trace file path to form a workload name that
// Parse resolves by loading the file: "trace:/path/to/ws.noctrace".
const TraceScheme = "trace:"

// LoadTrace opens the trace file at path as a Workload; it is the
// "trace:" scheme's parse function.
func LoadTrace(path string) (Workload, error) {
	t, err := OpenTraceFile(path)
	if err != nil {
		return nil, err // a nil Workload, not a nil *TraceFile
	}
	return t, nil
}

// Workload name schemes: a scheme owns every name spelled
// "<scheme>:<spec>" and parses the spec into a Workload. This package
// registers "trace:" this way, and the opensys package "opensys:".
var (
	schemeMu sync.RWMutex
	schemes  = map[string]func(spec string) (Workload, error){}
)

// RegisterScheme adds a workload name scheme: Parse hands every
// "<name>:<spec>" string to fn (spec is the part after the colon,
// untrimmed). The scheme name is case-insensitive, must be non-empty,
// colon-free, and not already taken. Parsed workloads must Name()
// themselves back to a string the scheme resolves, so sweep points and
// campaign manifests rehydrate by name alone.
func RegisterScheme(name string, fn func(spec string) (Workload, error)) error {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" || strings.Contains(key, ":") {
		return fmt.Errorf("workload: invalid scheme name %q", name)
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
	if i := strings.IndexByte(trimmed, ':'); i > 0 {
		schemeMu.RLock()
		fn := schemes[strings.ToLower(trimmed[:i])]
		schemeMu.RUnlock()
		if fn != nil {
			return fn(trimmed[i+1:])
		}
	}
	w, _, err := workloads.Lookup(s)
	return w, err
}
