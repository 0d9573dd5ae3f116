package fixture

import "testing"

func TestEvicts(t *testing.T) {
	var s DirStats
	s.evict()
	if s.Evicts != 1 {
		t.Fatalf("Evicts = %d, want 1", s.Evicts)
	}
}
