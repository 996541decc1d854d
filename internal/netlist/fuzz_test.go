package netlist

import (
	"testing"
	"time"
)

// FuzzParse feeds arbitrary deck text through Parse and, when it parses,
// Flatten: neither may panic, and both must return promptly, since a
// farm worker runs them on whatever a client sends. The seed corpus in
// testdata/fuzz/FuzzParse holds the test decks and the seed circuits.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if c, err := Parse(src); err == nil {
				Flatten(c) //nolint:errcheck // errors are acceptable, panics and hangs are not
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("Parse+Flatten still running after 5s on %q", src)
		}
	})
}
