package workload

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"nocout/internal/cpu"
)

// TestNOC3RecordGolden pins what the recorder writes at DefaultBlockLen:
// the container bytes and the stored fingerprint of two 8-core recordings
// (10 blocks per core: two keyframes, eight blocks where the phase
// predictor competes, the last of them a short tail). The fingerprint is
// the SHA-256 of the recording's canonical NOC2 encoding, so it pins the
// NOC2 record encoder the writer shares with writeNOC2.
func TestNOC3RecordGolden(t *testing.T) {
	const cores, perCore, seed = 8, 40000, 1
	for _, tc := range []struct {
		p         Params
		bytes, fp string
	}{
		{MapReduceC,
			"ffab0ec3f19f1bbbcb064cf91a198cc1cdcce8ba07d75dd6b1588ca9bf2b1b29",
			"c1ed8f118b54163e68ff66b34c44f13ab818d585aa4275745bc27a0c2ab2d7f7"},
		{DataServing,
			"3a0e6d7288060e9cc6c0882a82f074091ecbc5eef1761173f461efc621ad7fce",
			"a5b1ee4c12a453f936c167f72a77c7eb52ff2e7be2ab5a697e45cc1519f71c93"},
	} {
		t.Run(tc.p.Name, func(t *testing.T) {
			w := Synth(tc.p)
			data := writeNOC3Bytes(t, w, cores, perCore, seed, 0)
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.bytes {
				t.Fatalf("recorded bytes changed: sha256 %s, want %s", got, tc.bytes)
			}
			tf := parseNOC3(t, data)
			if st := tf.stats; st.Blocks != cores*10 {
				t.Fatalf("%d blocks, want %d", st.Blocks, cores*10)
			}
			fp := tf.Fingerprint()
			if got := fmt.Sprintf("%x", fp); got != tc.fp {
				t.Fatalf("fingerprint changed: %s, want %s", got, tc.fp)
			}

			if sum := sha256.Sum256(writeNOC2(t, w, cores, perCore, seed)); sum != fp {
				t.Fatalf("stored fingerprint %x is not the SHA-256 of the NOC2 encoding, %x", fp, sum)
			}
		})
	}
}

// withProcs runs f with GOMAXPROCS set to n, which sets how many encoders
// a recording starts.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestNOC3PipelineWorkerCount: the bytes a recording writes do not depend
// on how many encoders ran.
func TestNOC3PipelineWorkerCount(t *testing.T) {
	src := MapReducePhased() // phase structure exercises both predictors
	const cores, perCore, seed = 4, 10000, 3
	for _, blockLen := range []int{32, DefaultBlockLen} {
		var want []byte // the recording at GOMAXPROCS 1
		for _, procs := range []int{1, 2, 3, 8} {
			withProcs(procs, func() {
				got := writeNOC3Bytes(t, src, cores, perCore, seed, blockLen)
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Errorf("block length %d: recording at GOMAXPROCS %d differs from GOMAXPROCS 1", blockLen, procs)
				}
			})
		}
	}
}

// idleAt is its base with core's stream answering KindIdle at record at.
type idleAt struct {
	Workload
	core, at int
}

func (w idleAt) StreamFor(coreID int, seed uint64) cpu.Stream {
	st := w.Workload.StreamFor(coreID, seed)
	if coreID != w.core {
		return st
	}
	return &idleAtStream{Stream: st, at: w.at}
}

type idleAtStream struct {
	cpu.Stream
	n, at int
}

func (s *idleAtStream) Next() cpu.Instr {
	in := s.Stream.Next()
	if s.n == s.at {
		in.Kind = cpu.KindIdle
	}
	s.n++
	return in
}

// TestNOC3PipelineKindError: an unrecordable kind on a later core, with
// earlier blocks still in flight, fails naming the core and record.
func TestNOC3PipelineKindError(t *testing.T) {
	w := idleAt{Workload: Synth(DataServing), core: 3, at: 5000}
	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() {
			start := runtime.NumGoroutine()
			err := WriteNOC3(discardWriter{}, w, 4, 8000, 1, 32)
			want := fmt.Sprintf("workload: core 3 record 5000 has kind %d; only ALU/load/store streams are recordable", cpu.KindIdle)
			if err == nil || err.Error() != want {
				t.Fatalf("GOMAXPROCS %d: error %v, want %q", procs, err, want)
			}
			checkGoroutines(t, start)
		})
	}
}

// errDiskFull is failAfter's write error.
var errDiskFull = errors.New("disk full")

// failAfter accepts writes up to limit bytes in total and fails every
// write after that, noting how many records had been drawn when it first
// failed.
type failAfter struct {
	limit, n       int
	drawn          *int
	drawnAtFailure int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n+len(p) > f.limit {
		if f.drawnAtFailure < 0 {
			f.drawnAtFailure = *f.drawn
		}
		return 0, errDiskFull
	}
	f.n += len(p)
	return len(p), nil
}

// countDraws is its base with every record any stream hands out counted
// in *n. Streams are drawn only on the recording's calling goroutine, so
// the count needs no synchronization.
type countDraws struct {
	Workload
	n *int
}

func (w countDraws) StreamFor(coreID int, seed uint64) cpu.Stream {
	return &countStream{Stream: w.Workload.StreamFor(coreID, seed), n: w.n}
}

type countStream struct {
	cpu.Stream
	n *int
}

func (s *countStream) Next() cpu.Instr {
	*s.n++
	return s.Stream.Next()
}

// TestNOC3PipelineWriteFailure: a write that fails after the header stops
// the recording within the job ring, returns the error, and leaves no
// encoder running.
func TestNOC3PipelineWriteFailure(t *testing.T) {
	const blockLen, blocks = 32, 200
	src := Synth(MapReduceC)
	// The header ends where the first block section begins.
	header := int(parseNOC3(t, writeNOC3Bytes(t, src, 1, blockLen*blocks, 1, blockLen)).cores[0].blocks[0].off)
	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() {
			drawn := 0
			dst := &failAfter{limit: header, drawn: &drawn, drawnAtFailure: -1}
			start := runtime.NumGoroutine()
			err := WriteNOC3(dst, countDraws{src, &drawn}, 1, blockLen*blocks, 1, blockLen)
			if !errors.Is(err, errDiskFull) {
				t.Fatalf("GOMAXPROCS %d: error %v, want %v", procs, err, errDiskFull)
			}
			if dst.n != header || dst.drawnAtFailure < 0 {
				t.Fatalf("GOMAXPROCS %d: wrote %d bytes before the first failure, want the %d-byte header", procs, dst.n, header)
			}
			if after, limit := drawn-dst.drawnAtFailure, (2*recordEncoders()+1)*blockLen; after > limit {
				t.Fatalf("GOMAXPROCS %d: drew %d records after the write failed, want at most %d", procs, after, limit)
			}
			checkGoroutines(t, start)
		})
	}
}

// checkGoroutines fails t unless the goroutine count returns to start. A
// goroutine that has signalled its WaitGroup may still be exiting, so it
// yields for up to a second before judging.
func checkGoroutines(t *testing.T, start int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("%d goroutines still running after the recording returned, %d before it", n, start)
	}
}
