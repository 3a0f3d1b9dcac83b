//go:build !race

package doctagger

import (
	"testing"
)

// Allocation-regression pins for the end-to-end streaming tagging path
// (build-gated out under -race, which instruments allocations).

// TestStreamingAutoTagAllocBudget pins the pure local score path at ≤2
// allocs/op end to end: with the streaming pipeline — pooled workspace
// through a borrowed vector view into fused scoring into SelectTagsInto —
// the only steady-state allocation left is the returned tag slice itself.
func TestStreamingAutoTagAllocBudget(t *testing.T) {
	tg, err := New(Config{Protocol: ProtocolLocal, Peers: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	corpusFor(t, tg, 4)
	if err := tg.Train(); err != nil {
		t.Fatal(err)
	}
	const query = "a new album with a soft piano melody and a travel itinerary"
	if _, err := tg.AutoTag(query); err != nil { // warm pools and scratch
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := tg.AutoTag(query); err != nil {
			t.Fatal(err)
		}
	})
	if got > 2 {
		t.Errorf("streaming AutoTag: %.1f allocs/op, budget 2", got)
	}
}
