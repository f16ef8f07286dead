package core

import (
	"math/rand"
	"sort"

	"convgpu/internal/bytesize"
)

// Candidate describes a paused container eligible for additional memory
// during redistribution. Deficit is the memory still missing relative to
// what the container requested at creation time (limit - grant); with
// named tenants active it is further capped by the tenant's quota
// headroom and guarantee-reserved pool share (the effective deficit —
// what the container could actually receive right now).
//
// The tenant fields are populated only while the scheduler has named
// tenants registered; tenant-aware wake policies order candidates by
// them, and the paper's four algorithms ignore them.
type Candidate struct {
	ID         ContainerID
	CreatedSeq uint64 // creation order (smaller = older)
	SuspendSeq uint64 // most recent suspension order (larger = more recent)
	Deficit    bytesize.Size

	Tenant          string        // tenant name ("" = default tenant)
	TenantWeight    int           // fair-share weight (0 reads as 1)
	TenantPriority  int           // preemption priority
	TenantGrant     bytesize.Size // tenant's summed grants on this device
	TenantGuarantee bytesize.Size // tenant's soft reservation
}

// Algorithm selects which paused container receives freed GPU memory
// (paper §III-D). Pick returns an index into cands, or -1 to stop
// redistributing. cands is non-empty, ordered by creation, and every
// entry has a positive deficit; pool is the free memory available.
type Algorithm interface {
	Name() string
	Pick(pool bytesize.Size, cands []Candidate) int
}

// Algorithm names (internal/policy maps them, and their aliases, to the
// types below).
const (
	AlgFIFO      = "fifo"
	AlgBestFit   = "bestfit"
	AlgRecentUse = "recentuse"
	AlgRandom    = "random"
)

// AlgorithmNames lists the four paper algorithms in presentation order.
func AlgorithmNames() []string {
	return []string{AlgFIFO, AlgBestFit, AlgRecentUse, AlgRandom}
}

// FIFO selects the oldest created container among paused containers and
// assigns it memory up to its creation-time request.
type FIFO struct{}

// Name implements Algorithm.
func (FIFO) Name() string { return AlgFIFO }

// Pick implements Algorithm.
func (FIFO) Pick(pool bytesize.Size, cands []Candidate) int {
	best := -1
	for i, c := range cands {
		if best == -1 || c.CreatedSeq < cands[best].CreatedSeq {
			best = i
		}
	}
	return best
}

// BestFit selects the container whose insufficient memory is closest to,
// but does not exceed, the remaining free memory; if no container fits,
// it selects the one with the least insufficient memory. This maximizes
// GPU memory throughput — the paper's fastest algorithm for overall
// completion beyond 18 containers — at the cost of potential starvation
// of large containers (higher average suspended time beyond 26).
type BestFit struct{}

// Name implements Algorithm.
func (BestFit) Name() string { return AlgBestFit }

// Pick implements Algorithm.
func (BestFit) Pick(pool bytesize.Size, cands []Candidate) int {
	bestFit, bestSmall := -1, -1
	for i, c := range cands {
		if c.Deficit <= pool {
			// Fits: keep the largest deficit <= pool ("closest, but not
			// exceed"). Ties go to the older container for determinism.
			if bestFit == -1 || c.Deficit > cands[bestFit].Deficit ||
				(c.Deficit == cands[bestFit].Deficit && c.CreatedSeq < cands[bestFit].CreatedSeq) {
				bestFit = i
			}
		}
		if bestSmall == -1 || c.Deficit < cands[bestSmall].Deficit ||
			(c.Deficit == cands[bestSmall].Deficit && c.CreatedSeq < cands[bestSmall].CreatedSeq) {
			bestSmall = i
		}
	}
	if bestFit != -1 {
		return bestFit
	}
	return bestSmall
}

// RecentUse selects the most recently suspended container.
type RecentUse struct{}

// Name implements Algorithm.
func (RecentUse) Name() string { return AlgRecentUse }

// Pick implements Algorithm.
func (RecentUse) Pick(pool bytesize.Size, cands []Candidate) int {
	best := -1
	for i, c := range cands {
		if best == -1 || c.SuspendSeq > cands[best].SuspendSeq {
			best = i
		}
	}
	return best
}

// Random selects uniformly among paused containers. The seed makes
// experiment runs reproducible.
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a Random algorithm with its own seeded source.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Algorithm.
func (*Random) Name() string { return AlgRandom }

// Pick implements Algorithm.
func (r *Random) Pick(pool bytesize.Size, cands []Candidate) int {
	if len(cands) == 0 {
		return -1
	}
	// Stable input order keeps the draw reproducible regardless of how
	// the caller assembled the slice.
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return cands[idx[a]].CreatedSeq < cands[idx[b]].CreatedSeq
	})
	return idx[r.rng.Intn(len(idx))]
}

var (
	_ Algorithm = FIFO{}
	_ Algorithm = BestFit{}
	_ Algorithm = RecentUse{}
	_ Algorithm = (*Random)(nil)
)
