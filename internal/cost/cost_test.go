package cost

import "testing"

func TestSecondsRoundTrip(t *testing.T) {
	c := FromSeconds(0.25)
	if got := Seconds(c); got < 0.2499 || got > 0.2501 {
		t.Fatalf("round trip 0.25s -> %v", got)
	}
}

func TestRelativeMagnitudes(t *testing.T) {
	// The performance results depend on these orderings (see the package
	// comment); breaking them silently would invalidate every figure.
	if !(Fence > 10*Load) {
		t.Fatal("a fence must dwarf a cache-hit load")
	}
	if !(CAS > Load && CAS > Store) {
		t.Fatal("CAS must cost more than plain accesses")
	}
	if !(Miss > 10*Load) {
		t.Fatal("a coherence miss must dwarf a hit")
	}
	if !(TxBegin+TxCommit < 3*Fence) {
		t.Fatal("transaction entry/exit must stay cheaper than a few fences (the premise of §4)")
	}
	if !(TimesliceQuantum > 1000*Fence) {
		t.Fatal("a scheduling quantum must dwarf synchronization costs")
	}
	if !(Checkpoint < Block) {
		t.Fatal("the split checkpoint must be cheaper than a block (it is a counter bump)")
	}
}
