package stream

import (
	"strings"
	"testing"
)

// FuzzStreamChain drives the whole stream stack from two fuzzed inputs: a
// chain seed and a mode selector. Every input generates a short version
// chain and replays it end to end with the chain-wide oracle armed — so the
// fuzzer explores the composition surface (mutation batches × engine modes
// × hostile interleavings) rather than a single parser. Any oracle failure,
// stats-invariant violation, or safe-point livelock is a real bug; the only
// tolerated outcome besides success is the generator legitimately running
// out of acceptable mutation batches for a degenerate seed.
func FuzzStreamChain(f *testing.F) {
	f.Add(int64(1), byte(0))
	f.Add(int64(7), byte(1))
	f.Add(int64(42), byte(2))
	f.Add(int64(1905), byte(3))
	f.Add(int64(-3), byte(4))
	f.Fuzz(func(t *testing.T, seed int64, modeSel byte) {
		modes := Modes()
		mode := modes[int(modeSel)%len(modes)]
		rep, err := Replay(Config{
			Seed:      seed,
			Length:    5,
			Classes:   5,
			Mutations: 2,
			Mode:      mode,
			Hostile:   true,
		})
		if err != nil {
			// Degenerate seeds can exhaust the mutation-batch retry bound
			// during generation; that is the generator refusing, not the
			// engine failing.
			if strings.Contains(err.Error(), "no acceptable mutation batch") {
				t.Skip(err)
			}
			t.Fatalf("mode %s: %v", mode.Name, err)
		}
		if rep.Applied != 5 {
			t.Fatalf("mode %s: applied=%d, want 5", mode.Name, rep.Applied)
		}
	})
}
