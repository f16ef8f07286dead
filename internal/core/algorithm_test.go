package core

import (
	"testing"

	"convgpu/internal/bytesize"
)

func mib(n int) bytesize.Size { return bytesize.Size(n) * bytesize.MiB }

func cands() []Candidate {
	return []Candidate{
		{ID: "a", CreatedSeq: 1, SuspendSeq: 30, Deficit: mib(1000)},
		{ID: "b", CreatedSeq: 2, SuspendSeq: 40, Deficit: mib(300)},
		{ID: "c", CreatedSeq: 3, SuspendSeq: 10, Deficit: mib(500)},
		{ID: "d", CreatedSeq: 4, SuspendSeq: 20, Deficit: mib(800)},
	}
}

// paperAlgorithms is the paper's four, Random seeded, in AlgorithmNames
// order. core's tests iterate it: internal/policy owns the name mapping
// and imports core, so they cannot build algorithms by name.
func paperAlgorithms(seed int64) []Algorithm {
	return []Algorithm{FIFO{}, BestFit{}, RecentUse{}, NewRandom(seed)}
}

func TestAlgorithmNamesOrder(t *testing.T) {
	want := []string{"fifo", "bestfit", "recentuse", "random"}
	got := AlgorithmNames()
	if len(got) != len(want) {
		t.Fatalf("AlgorithmNames() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AlgorithmNames() = %v, want %v", got, want)
		}
	}
}

func TestFIFOPicksOldest(t *testing.T) {
	if i := (FIFO{}).Pick(mib(100), cands()); i != 0 {
		t.Fatalf("FIFO picked index %d, want 0 (oldest)", i)
	}
	// Order independence.
	cs := cands()
	cs[0], cs[3] = cs[3], cs[0]
	if i := (FIFO{}).Pick(mib(100), cs); cs[i].ID != "a" {
		t.Fatalf("FIFO picked %s, want a", cs[i].ID)
	}
}

func TestBestFitPicksLargestFitting(t *testing.T) {
	// Pool 600: deficits <= 600 are b(300) and c(500); the closest from
	// below is c.
	if i := (BestFit{}).Pick(mib(600), cands()); cands()[i].ID != "c" {
		t.Fatalf("BestFit picked %s, want c", cands()[i].ID)
	}
	// Pool 2000: everything fits; the closest is a(1000).
	if i := (BestFit{}).Pick(mib(2000), cands()); cands()[i].ID != "a" {
		t.Fatalf("BestFit picked %s, want a", cands()[i].ID)
	}
	// Exact fit wins.
	if i := (BestFit{}).Pick(mib(800), cands()); cands()[i].ID != "d" {
		t.Fatalf("BestFit picked %s, want d", cands()[i].ID)
	}
}

func TestBestFitFallbackLeastDeficit(t *testing.T) {
	// Pool smaller than every deficit: pick least insufficient (b).
	if i := (BestFit{}).Pick(mib(100), cands()); cands()[i].ID != "b" {
		t.Fatalf("BestFit fallback picked %s, want b", cands()[i].ID)
	}
}

func TestBestFitTieBreaksByAge(t *testing.T) {
	cs := []Candidate{
		{ID: "young", CreatedSeq: 9, Deficit: mib(200)},
		{ID: "old", CreatedSeq: 1, Deficit: mib(200)},
	}
	if i := (BestFit{}).Pick(mib(500), cs); cs[i].ID != "old" {
		t.Fatalf("BestFit tie picked %s, want old", cs[i].ID)
	}
	if i := (BestFit{}).Pick(mib(50), cs); cs[i].ID != "old" {
		t.Fatalf("BestFit fallback tie picked %s, want old", cs[i].ID)
	}
}

func TestRecentUsePicksMostRecentlySuspended(t *testing.T) {
	if i := (RecentUse{}).Pick(mib(100), cands()); cands()[i].ID != "b" {
		t.Fatalf("RecentUse picked %s, want b (suspendSeq 40)", cands()[i].ID)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a1 := NewRandom(42)
	a2 := NewRandom(42)
	for i := 0; i < 50; i++ {
		p1 := a1.Pick(mib(100), cands())
		p2 := a2.Pick(mib(100), cands())
		if p1 != p2 {
			t.Fatalf("same seed diverged at draw %d: %d vs %d", i, p1, p2)
		}
		if p1 < 0 || p1 >= 4 {
			t.Fatalf("Random picked out-of-range index %d", p1)
		}
	}
}

func TestRandomCoversAllCandidates(t *testing.T) {
	a := NewRandom(7)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[a.Pick(mib(100), cands())] = true
	}
	for i := 0; i < 4; i++ {
		if !seen[i] {
			t.Fatalf("Random never picked index %d in 200 draws", i)
		}
	}
}

func TestRandomEmpty(t *testing.T) {
	if i := NewRandom(1).Pick(mib(100), nil); i != -1 {
		t.Fatalf("Random on empty candidates = %d, want -1", i)
	}
}

func TestRandomOrderIndependentDistribution(t *testing.T) {
	// The draw must depend on creation order, not slice order.
	a1 := NewRandom(99)
	a2 := NewRandom(99)
	cs1 := cands()
	cs2 := cands()
	cs2[0], cs2[3] = cs2[3], cs2[0]
	for i := 0; i < 50; i++ {
		id1 := cs1[a1.Pick(mib(100), cs1)].ID
		id2 := cs2[a2.Pick(mib(100), cs2)].ID
		if id1 != id2 {
			t.Fatalf("draw %d: %s vs %s — slice order changed the pick", i, id1, id2)
		}
	}
}

func TestAlgorithmNameMethods(t *testing.T) {
	cases := map[string]Algorithm{
		"fifo":      FIFO{},
		"bestfit":   BestFit{},
		"recentuse": RecentUse{},
		"random":    NewRandom(0),
	}
	for want, a := range cases {
		if got := a.Name(); got != want {
			t.Errorf("%T.Name() = %q, want %q", a, got, want)
		}
	}
}
