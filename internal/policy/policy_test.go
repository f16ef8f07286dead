package policy

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"convgpu/internal/bytesize"
	"convgpu/internal/cluster"
	"convgpu/internal/core"
	"convgpu/internal/multigpu"
)

func TestWakeNamesOrder(t *testing.T) {
	want := append(core.AlgorithmNames(), WakeFairShare, WakeQuota, WakePriority)
	if got := WakeNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("WakeNames() = %v, want %v", got, want)
	}
}

func TestPlaceNamesOrder(t *testing.T) {
	want := []string{multigpu.PolicyRoundRobin, multigpu.PolicyLeastLoaded, multigpu.PolicyFirstFit, multigpu.PolicyBestFit, PlaceFragAware}
	if got := PlaceNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PlaceNames() = %v, want %v", got, want)
	}
}

func TestResolveWakeAliases(t *testing.T) {
	cases := map[string]string{
		"fifo": core.AlgFIFO, "first-in-first-out": core.AlgFIFO,
		"bestfit": core.AlgBestFit, "bf": core.AlgBestFit, "best-fit": core.AlgBestFit,
		"recentuse": core.AlgRecentUse, "ru": core.AlgRecentUse, "recent-use": core.AlgRecentUse,
		"random": core.AlgRandom, "rand": core.AlgRandom,
		"fairshare": WakeFairShare, "fair-share": WakeFairShare, "fs": WakeFairShare, "drf": WakeFairShare,
		"quota": WakeQuota, "guarantee": WakeQuota,
		"priority": WakePriority, "prio": WakePriority, "preempt": WakePriority,
		"FIFO": core.AlgFIFO, "FairShare": WakeFairShare, // case-insensitive
	}
	for in, want := range cases {
		got, ok := ResolveWake(in)
		if !ok || got != want {
			t.Errorf("ResolveWake(%q) = %q, %v; want %q, true", in, got, ok, want)
		}
	}
	if _, ok := ResolveWake("nope"); ok {
		t.Errorf("ResolveWake(\"nope\") resolved; want unknown")
	}
}

func TestResolvePlaceAliases(t *testing.T) {
	cases := map[string]string{
		"roundrobin": multigpu.PolicyRoundRobin, "rr": multigpu.PolicyRoundRobin,
		"leastloaded": multigpu.PolicyLeastLoaded, "ll": multigpu.PolicyLeastLoaded,
		"firstfit": multigpu.PolicyFirstFit, "ff": multigpu.PolicyFirstFit,
		"bestfit": multigpu.PolicyBestFit, "bf": multigpu.PolicyBestFit,
		"fragaware": PlaceFragAware, "frag": PlaceFragAware, "fragmentation-aware": PlaceFragAware,
	}
	for in, want := range cases {
		got, ok := ResolvePlace(in)
		if !ok || got != want {
			t.Errorf("ResolvePlace(%q) = %q, %v; want %q, true", in, got, ok, want)
		}
	}
}

func TestNewWakeUnknown(t *testing.T) {
	_, err := NewWake("no-such-policy", Config{})
	if err == nil {
		t.Fatal("NewWake of unknown name succeeded")
	}
	if !strings.Contains(err.Error(), "fifo") {
		t.Fatalf("unknown-policy error should list the table: %v", err)
	}
}

// named is what the three policy kinds have in common.
type named interface{ Name() string }

// TestTables covers every canonical name and every alias of all three
// tables: each builds the expected concrete type under its canonical
// Name(), in any letter case; the listing is the canonical names in
// table order; a randomized entry built with Config{Seed: s} draws the
// same sequence as its direct constructor with seed s; and an unknown
// name fails with the whole list.
func TestTables(t *testing.T) {
	type row struct {
		want  named    // a value of the concrete type the names build
		names []string // canonical name first, then every alias
	}
	// wakeDraws and strategyDraws record 200 decisions over fixed inputs.
	wakeDraws := func(p named) []int {
		cands := make([]core.Candidate, 5)
		for i := range cands {
			cands[i] = core.Candidate{ID: core.ContainerID(rune('a' + i)), CreatedSeq: uint64(i), Deficit: bytesize.MiB}
		}
		out := make([]int, 200)
		for i := range out {
			out[i] = p.(core.Algorithm).Pick(bytesize.GiB, cands)
		}
		return out
	}
	strategyDraws := func(p named) []int {
		nodes := make([]cluster.NodeInfo, 4)
		for i := range nodes {
			nodes[i] = cluster.NodeInfo{Index: i, MaxDeviceCapacity: bytesize.GiB}
		}
		out := make([]int, 200)
		for i := range out {
			out[i] = p.(cluster.Strategy).Place(bytesize.MiB, nodes)
		}
		return out
	}
	const seed = 42
	for _, kind := range []struct {
		name  string
		build func(string, Config) (named, error)
		list  []string
		rows  []row
		// seeded is the randomized entry's own constructor at seed, and
		// draws records its decisions.
		seeded func() named
		draws  func(named) []int
	}{
		{
			name:  "wake",
			build: func(n string, c Config) (named, error) { return NewWake(n, c) },
			list:  WakeNames(),
			rows: []row{
				{core.FIFO{}, []string{"fifo", "first-in-first-out"}},
				{core.BestFit{}, []string{"bestfit", "bf", "best-fit"}},
				{core.RecentUse{}, []string{"recentuse", "ru", "recent-use"}},
				{core.NewRandom(0), []string{"random", "rand"}},
				{FairShare{}, []string{"fairshare", "fair-share", "fs", "drf"}},
				{Quota{}, []string{"quota", "guarantee"}},
				{Priority{}, []string{"priority", "prio", "preempt"}},
			},
			seeded: func() named { return core.NewRandom(seed) },
			draws:  wakeDraws,
		},
		{
			name:  "placement",
			build: func(n string, c Config) (named, error) { return NewPlace(n, c) },
			list:  PlaceNames(),
			rows: []row{
				{&multigpu.RoundRobin{}, []string{"roundrobin", "rr"}},
				{multigpu.LeastLoaded{}, []string{"leastloaded", "ll"}},
				{multigpu.FirstFit{}, []string{"firstfit", "ff"}},
				{multigpu.BestFitDevice{}, []string{"bestfit", "bf"}},
				{FragAware{}, []string{"fragaware", "frag", "fragmentation-aware"}},
			},
		},
		{
			name:  "strategy",
			build: func(n string, c Config) (named, error) { return NewStrategy(n, c) },
			list:  StrategyNames(),
			rows: []row{
				{cluster.Spread{}, []string{"spread"}},
				{cluster.Binpack{}, []string{"binpack"}},
				{cluster.NewRandomStrategy(0), []string{"random", "rand"}},
			},
			seeded: func() named { return cluster.NewRandomStrategy(seed) },
			draws:  strategyDraws,
		},
	} {
		t.Run(kind.name, func(t *testing.T) {
			var canonical []string
			for _, r := range kind.rows {
				canonical = append(canonical, r.names[0])
				for _, name := range r.names {
					for _, spelling := range []string{name, strings.ToUpper(name)} {
						got, err := kind.build(spelling, Config{Seed: seed})
						if err != nil {
							t.Errorf("%q: %v", spelling, err)
							continue
						}
						if reflect.TypeOf(got) != reflect.TypeOf(r.want) || got.Name() != r.names[0] {
							t.Errorf("%q built %T named %q, want %T named %q", spelling, got, got.Name(), r.want, r.names[0])
						}
						if r.names[0] != "random" {
							continue
						}
						if g, w := kind.draws(got), kind.draws(kind.seeded()); !reflect.DeepEqual(g, w) {
							t.Errorf("%q with seed %d draws %v, its constructor %v", spelling, seed, g, w)
						}
					}
				}
			}
			if !reflect.DeepEqual(kind.list, canonical) {
				t.Errorf("names = %v, want %v", kind.list, canonical)
			}
			_, err := kind.build("no-such-policy", Config{})
			if err == nil || !strings.Contains(err.Error(), strings.Join(canonical, "|")) {
				t.Errorf("unknown name: err = %v, want the full list %s", err, strings.Join(canonical, "|"))
			}
		})
	}
	// Stateful placement is built fresh per call, so every node of a
	// cluster rotates on its own.
	a, _ := NewPlace(multigpu.PolicyRoundRobin, Config{})
	b, _ := NewPlace(multigpu.PolicyRoundRobin, Config{})
	if a == b {
		t.Error("two round-robin placements share one instance")
	}
}

// TestNewWakeLegacyByteIdentical: each of the paper's four names makes
// the same decisions through NewWake as the core value it built before
// the table, with the same seed, over 500 random rounds.
func TestNewWakeLegacyByteIdentical(t *testing.T) {
	legacy := map[string]core.Algorithm{
		core.AlgFIFO: core.FIFO{}, core.AlgBestFit: core.BestFit{},
		core.AlgRecentUse: core.RecentUse{}, core.AlgRandom: core.NewRandom(7),
	}
	for _, name := range core.AlgorithmNames() {
		viaTable, err := NewWake(name, Config{Seed: 7})
		if err != nil {
			t.Fatalf("NewWake(%q): %v", name, err)
		}
		direct := legacy[name]
		rng := rand.New(rand.NewSource(11))
		for round := 0; round < 500; round++ {
			n := 1 + rng.Intn(8)
			cands := make([]core.Candidate, n)
			for i := range cands {
				cands[i] = core.Candidate{
					ID:         core.ContainerID(string(rune('a' + i))),
					CreatedSeq: uint64(rng.Intn(40)),
					SuspendSeq: uint64(rng.Intn(40)),
					Deficit:    bytesize.Size(1+rng.Intn(1024)) * bytesize.MiB,
				}
			}
			pool := bytesize.Size(rng.Intn(2048)) * bytesize.MiB
			if got, want := viaTable.Pick(pool, cands), direct.Pick(pool, cands); got != want {
				t.Fatalf("%s round %d: table pick %d, direct pick %d", name, round, got, want)
			}
		}
	}
}

// TestNewPlaceLegacyByteIdentical is the placement twin of the above,
// over the four placement names multigpu resolved before the table.
func TestNewPlaceLegacyByteIdentical(t *testing.T) {
	legacy := map[string]multigpu.Policy{
		multigpu.PolicyRoundRobin: &multigpu.RoundRobin{}, multigpu.PolicyLeastLoaded: multigpu.LeastLoaded{},
		multigpu.PolicyFirstFit: multigpu.FirstFit{}, multigpu.PolicyBestFit: multigpu.BestFitDevice{},
	}
	for name, direct := range legacy {
		viaTable, err := NewPlace(name, Config{})
		if err != nil {
			t.Fatalf("NewPlace(%q): %v", name, err)
		}
		rng := rand.New(rand.NewSource(13))
		for round := 0; round < 500; round++ {
			n := 1 + rng.Intn(6)
			devs := make([]core.DeviceInfo, n)
			for i := range devs {
				cap := bytesize.Size(1+rng.Intn(8)) * bytesize.GiB
				devs[i] = core.DeviceInfo{
					Index:      i,
					Capacity:   cap,
					PoolFree:   bytesize.Size(rng.Int63n(int64(cap) + 1)),
					Containers: rng.Intn(5),
				}
			}
			limit := bytesize.Size(1+rng.Intn(4096)) * bytesize.MiB
			if got, want := viaTable.Place(limit, devs), direct.Place(limit, devs); got != want {
				t.Fatalf("%s round %d: table place %d, direct place %d", name, round, got, want)
			}
		}
	}
}

func cand(id string, seq uint64, weight, prio int, tGrant, tGuar bytesize.Size) core.Candidate {
	return core.Candidate{
		ID: core.ContainerID(id), CreatedSeq: seq, Deficit: bytesize.MiB,
		TenantWeight: weight, TenantPriority: prio,
		TenantGrant: tGrant, TenantGuarantee: tGuar,
	}
}

func TestFairSharePick(t *testing.T) {
	// b's tenant holds 100 MiB at weight 1 (share 100); a's holds
	// 300 MiB at weight 4 (share 75): a is more underserved.
	cands := []core.Candidate{
		cand("a", 1, 4, 0, 300*bytesize.MiB, 0),
		cand("b", 2, 1, 0, 100*bytesize.MiB, 0),
	}
	if got := (FairShare{}).Pick(bytesize.GiB, cands); got != 0 {
		t.Fatalf("Pick = %d, want 0 (weighted share 75 < 100)", got)
	}
	// Equal shares tie-break on creation order.
	cands = []core.Candidate{
		cand("old", 5, 2, 0, 200*bytesize.MiB, 0),
		cand("older", 3, 2, 0, 200*bytesize.MiB, 0),
	}
	if got := (FairShare{}).Pick(bytesize.GiB, cands); got != 1 {
		t.Fatalf("tie Pick = %d, want 1 (older container)", got)
	}
	// Zero weight reads as 1, so single-tenant candidates degrade to FIFO.
	cands = []core.Candidate{
		cand("c1", 9, 0, 0, 0, 0),
		cand("c0", 2, 0, 0, 0, 0),
	}
	if got := (FairShare{}).Pick(bytesize.GiB, cands); got != 1 {
		t.Fatalf("default-tenant Pick = %d, want 1 (FIFO fallback)", got)
	}
}

func TestQuotaPick(t *testing.T) {
	// b's tenant is 200 MiB below its guarantee, a's is at it.
	cands := []core.Candidate{
		cand("a", 1, 0, 0, 256*bytesize.MiB, 256*bytesize.MiB),
		cand("b", 2, 0, 0, 56*bytesize.MiB, 256*bytesize.MiB),
	}
	if got := (Quota{}).Pick(bytesize.GiB, cands); got != 1 {
		t.Fatalf("Pick = %d, want 1 (largest guarantee shortfall)", got)
	}
	// No shortfalls: FIFO order.
	cands = []core.Candidate{
		cand("young", 7, 0, 0, 0, 0),
		cand("old", 1, 0, 0, 0, 0),
	}
	if got := (Quota{}).Pick(bytesize.GiB, cands); got != 1 {
		t.Fatalf("no-shortfall Pick = %d, want 1 (FIFO fallback)", got)
	}
}

func TestPriorityPick(t *testing.T) {
	cands := []core.Candidate{
		cand("low", 1, 0, 1, 0, 0),
		cand("high", 2, 0, 9, 0, 0),
		cand("mid", 3, 0, 5, 0, 0),
	}
	if got := (Priority{}).Pick(bytesize.GiB, cands); got != 1 {
		t.Fatalf("Pick = %d, want 1 (highest priority)", got)
	}
}

func holder(id string, prio int, seq uint64, grant, used bytesize.Size) core.Holder {
	return core.Holder{ID: core.ContainerID(id), Priority: prio, CreatedSeq: seq, Grant: grant, Used: used}
}

func TestPriorityVictims(t *testing.T) {
	req := core.Holder{ID: "req", Priority: 5}
	holders := []core.Holder{
		holder("equal", 5, 1, 500*bytesize.MiB, 0),              // same priority: never a victim
		holder("above", 9, 2, 500*bytesize.MiB, 0),              // higher: never a victim
		holder("low-old", 1, 3, 100*bytesize.MiB, 0),            // lowest priority, older
		holder("low-young", 1, 4, 100*bytesize.MiB, 0),          // lowest priority, younger: first victim
		holder("mid", 3, 5, 400*bytesize.MiB, 300*bytesize.MiB), // 100 MiB unused
	}
	got := (Priority{}).Victims(250*bytesize.MiB, req, holders)
	want := []core.ContainerID{"low-young", "low-old", "mid"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Victims = %v, want %v", got, want)
	}
	// Need beyond all eligible unused grant: decline entirely.
	if got := (Priority{}).Victims(500*bytesize.MiB, req, holders); got != nil {
		t.Fatalf("uncoverable need returned victims %v, want nil", got)
	}
	// No lower-priority holders: decline.
	if got := (Priority{}).Victims(bytesize.MiB, req, holders[:2]); got != nil {
		t.Fatalf("no eligible holders returned %v, want nil", got)
	}
}

func dev(i int, cap, free bytesize.Size) core.DeviceInfo {
	return core.DeviceInfo{Index: i, Capacity: cap, PoolFree: free}
}

func TestFragAwarePlace(t *testing.T) {
	devs := []core.DeviceInfo{
		dev(0, 8*bytesize.GiB, 6*bytesize.GiB),
		dev(1, 2*bytesize.GiB, bytesize.GiB),
		dev(2, 4*bytesize.GiB, 3*bytesize.GiB),
	}
	// A small container goes to the smallest device that fits it,
	// keeping the 8 GiB pool whole.
	if got := (FragAware{}).Place(512*bytesize.MiB, devs); got != 1 {
		t.Fatalf("small Place = %d, want 1 (smallest fitting device)", got)
	}
	// A large one must take the big device.
	if got := (FragAware{}).Place(5*bytesize.GiB, devs); got != 0 {
		t.Fatalf("large Place = %d, want 0", got)
	}
	// Capacity ties prefer the fuller device (smaller free pool).
	tied := []core.DeviceInfo{
		dev(0, 4*bytesize.GiB, 3*bytesize.GiB),
		dev(1, 4*bytesize.GiB, 2*bytesize.GiB),
	}
	if got := (FragAware{}).Place(bytesize.GiB, tied); got != 1 {
		t.Fatalf("tie Place = %d, want 1 (fuller device)", got)
	}
	// Nothing's free pool covers the limit: least-loaded fallback among
	// devices whose capacity could ever hold it.
	full := []core.DeviceInfo{
		dev(0, 2*bytesize.GiB, 256*bytesize.MiB),
		dev(1, 4*bytesize.GiB, 512*bytesize.MiB),
	}
	if got := (FragAware{}).Place(bytesize.GiB, full); got != 1 {
		t.Fatalf("fallback Place = %d, want 1 (largest free pool)", got)
	}
	// No device large enough at all: -1.
	if got := (FragAware{}).Place(16*bytesize.GiB, devs); got != -1 {
		t.Fatalf("oversized Place = %d, want -1", got)
	}
}
