package workload

import "testing"

// TestRegistryErrorTexts pins every error the workload registry returns,
// byte for byte: users read them, and the unknown-name error lists what is
// registered.
func TestRegistryErrorTexts(t *testing.T) {
	snapshotRegistry(t)

	named := func(name string, aliases ...string) Workload {
		p := DataServing
		p.Name = name
		return Synth(p, aliases...)
	}
	for _, tc := range []struct {
		what string
		w    Workload
		want string
	}{
		{"no name", named(" "), "workload: Register needs a name"},
		{"an empty alias", named(" Key-Value Store ", "kv", "  "), `workload: "Key-Value Store" has an empty alias`},
		{"a taken name", named("WEB SEARCH"), `workload: name "web search" already registered by Web Search`},
		{"a taken alias", named("Key-Value Store", "kv", " Cassandra"), `workload: name "cassandra" already registered by Data Serving`},
		{"':' in the name", named("Trace:Thing"), `workload: name "trace:thing" contains ':' (reserved for schemes)`},
		{"':' in an alias", named("Key-Value Store", "kv:1"), `workload: name "kv:1" contains ':' (reserved for schemes)`},
	} {
		err := Register(tc.w)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Register with %s: error %v, want %q", tc.what, err, tc.want)
		}
	}

	const known = "Data Serving | MapReduce-C | MapReduce-W | SAT Solver | Web Frontend | Web Search | Consolidated | MapReduce-Phased"
	for in, want := range map[string]string{
		" Quake ":  `workload: unknown workload " Quake " (want ` + known + `, an alias, trace:<path>, or a registered scheme)`,
		"doom:e1":  `workload: unknown workload "doom:e1" (want ` + known + `, an alias, trace:<path>, or a registered scheme)`,
		":nothing": `workload: unknown workload ":nothing" (want ` + known + `, an alias, trace:<path>, or a registered scheme)`,
	} {
		if _, err := Parse(in); err == nil || err.Error() != want {
			t.Errorf("Parse(%q): error %v, want %q", in, err, want)
		}
	}
}
