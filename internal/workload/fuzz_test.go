package workload

import (
	"bytes"
	"testing"
)

// FuzzReadNOC3 holds the trace reader to the no-panic,
// no-unbounded-allocation contract: arbitrary bytes either fail
// Parse/Verify cleanly or decode into a trace whose every stream replays
// valid instructions. Hostile indexes, corrupt CRCs, truncated blocks,
// and invalid predictor ids must never panic or allocate proportionally
// to claimed sizes. `go test` runs the seed corpus on every CI pass;
// `go test -fuzz FuzzReadNOC3` explores further.
func FuzzReadNOC3(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteNOC3(&buf, MapReducePhased(), 2, 300, 1, 32); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...)) // truncated mid-blocks
	f.Add(append([]byte(nil), valid[:6]...))            // magic + version only
	f.Add([]byte("NOC3"))
	f.Add([]byte("3CON"))
	tr := append([]byte(nil), valid...)
	tr[len(tr)-10] ^= 0xFF // index offset pointing into nowhere
	f.Add(tr)
	hostile := append([]byte(nil), valid...)
	hostile[len(hostile)-12] = 0x04 // index offset -> header section
	f.Add(hostile)
	f.Add(wrappingNOC3(f)) // hot region past the top of the address space
	f.Fuzz(func(t *testing.T, data []byte) {
		tf, err := parseTraceBytes(data)
		if err != nil {
			return
		}
		if err := tf.Verify(); err != nil {
			return
		}
		// A verified trace must uphold the replay invariants end to end.
		for core := range tf.cores {
			st := tf.StreamFor(core, 1)
			n := tf.cores[core].meta.Total
			if n > 2000 {
				n = 2000
			}
			for i := 0; i < n; i++ {
				if in := st.Next(); in.Kind > 2 {
					t.Fatalf("core %d decoded invalid kind %d", core, in.Kind)
				}
			}
			if err := validCoreParams(core, tf.cores[core].meta.Params); err != nil {
				t.Fatal(err)
			}
		}
	})
}
