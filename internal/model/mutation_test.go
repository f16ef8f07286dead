package model_test

import (
	"testing"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/model"
	"convgpu/internal/policy"
)

// The mutation tests prove the oracle's sensitivity: a deliberately
// broken scheduler must diverge from the model within maxMutationOps
// ops on a fixed seed, and the shrinker must cut the failing stream to
// at most maxShrunk ops. If these start failing after a harness change,
// the harness lost discrimination — that is a real regression even
// though all conformance tests stay green.
const (
	maxMutationOps = 1000
	maxShrunk      = 25
	mutationSeed   = 3
)

// brokenBestFit picks the candidate with the largest deficit whether or
// not the pool covers it — the classic misreading of the paper's
// "closest, but not exceeding" rule.
type brokenBestFit struct{}

func (brokenBestFit) Name() string { return core.AlgBestFit }

func (brokenBestFit) Pick(pool bytesize.Size, cands []core.Candidate) int {
	best := 0
	for i, c := range cands {
		if c.Deficit > cands[best].Deficit {
			best = i
		}
	}
	return best
}

// mutantBackend is a single-device backend whose real side is built
// from the given config while the model side stays faithful to the
// paper semantics.
func mutantBackend(name string, cfg core.Config) model.Backend {
	return mutantBackendAlg(name, cfg, core.AlgBestFit)
}

func mutantBackendAlg(name string, cfg core.Config, modelAlg string) model.Backend {
	mk := func() (core.Scheduler, error) { return core.New(cfg) }
	return model.Backend{
		Name: name, New: mk, Restart: mk,
		Model: func() *model.Model {
			return model.New(model.Config{
				Devices: 1, Capacity: capacity, Overhead: overhead,
				Algorithm: modelAlg, AlgSeeds: []int64{1},
			})
		},
	}
}

// detectMutation runs the fixed-seed stream against the mutant and
// requires a divergence within maxMutationOps ops, then shrinks it and
// requires the reproducer to stay under maxShrunk ops.
func detectMutation(t *testing.T, b model.Backend) {
	t.Helper()
	g := model.DefaultGenConfig()
	if len(b.Tenants) > 0 {
		g.TenantSlots = len(b.Tenants)
	}
	ops := model.Generate(mutationSeed, maxMutationOps, g)
	div, err := model.RunOps(b, ops)
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	if div == nil {
		t.Fatalf("mutant %s not detected within %d ops (seed=%d): the oracle lost sensitivity", b.Name, maxMutationOps, mutationSeed)
	}
	t.Logf("%s detected at step %d: %s", b.Name, div.Step, div.Detail)
	min := model.Shrink(ops[:div.Step+1], func(sub []model.Op) bool { return model.Fails(b, sub) })
	if !model.Fails(b, min) {
		t.Fatalf("shrunk stream no longer fails")
	}
	if len(min) > maxShrunk {
		t.Fatalf("shrunk reproducer has %d ops, want <= %d:\n%s", len(min), maxShrunk, model.FormatOps(min))
	}
	d, _ := model.RunOps(b, min)
	t.Logf("minimal reproducer (%d ops), diverging with %q:\n%s", len(min), d.Detail, model.FormatOps(min))
}

// TestMutationBrokenBestFit plants a Best-Fit that ignores the pool
// bound and demands the oracle catches it fast and shrinks it small.
func TestMutationBrokenBestFit(t *testing.T) {
	detectMutation(t, mutantBackend("broken-bestfit", core.Config{
		Capacity: capacity, ContextOverhead: overhead, Algorithm: brokenBestFit{},
	}))
}

// TestMutationCapacityOffByOne plants a one-byte capacity inflation —
// the real device claims one more byte than the model believes exists.
func TestMutationCapacityOffByOne(t *testing.T) {
	alg, err := policy.NewWake(core.AlgBestFit, policy.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	detectMutation(t, mutantBackend("capacity-off-by-one", core.Config{
		Capacity: capacity + 1, ContextOverhead: overhead, Algorithm: alg,
	}))
}

// invertedFairShare wakes the tenant holding the LARGEST weighted share
// — fair share backwards. The tenant oracle must catch it.
type invertedFairShare struct{}

func (invertedFairShare) Name() string { return "fairshare" }

func (invertedFairShare) Pick(pool bytesize.Size, cands []core.Candidate) int {
	w := func(n int) int64 {
		if n <= 0 {
			return 1
		}
		return int64(n)
	}
	best := 0
	for i, c := range cands {
		b := cands[best]
		if int64(c.TenantGrant)*w(b.TenantWeight) > int64(b.TenantGrant)*w(c.TenantWeight) {
			best = i
		}
	}
	return best
}

// TestMutationInvertedFairShare plants the inverted fair-share policy
// under tenant streams: the oracle's rollup and grant cross-checks must
// expose the wrong wake order quickly.
func TestMutationInvertedFairShare(t *testing.T) {
	b := mutantBackendAlg("inverted-fairshare", core.Config{
		Capacity: capacity, ContextOverhead: overhead, Algorithm: invertedFairShare{},
	}, "fairshare")
	b.Tenants = tenantTable()
	detectMutation(t, b)
}

// greedyPreemptor is the priority policy with the eligibility check
// broken: it also victimizes holders of EQUAL priority, so same-tenant
// and same-rank containers steal each other's unused grant.
type greedyPreemptor struct{ core.Algorithm }

func (greedyPreemptor) Victims(need bytesize.Size, req core.Holder, holders []core.Holder) []core.ContainerID {
	var out []core.ContainerID
	var sum bytesize.Size
	for _, h := range holders {
		if h.Priority <= req.Priority && h.Grant > h.Used {
			out = append(out, h.ID)
			if sum += h.Grant - h.Used; sum >= need {
				return out
			}
		}
	}
	return nil
}

// TestMutationGreedyPreemptor plants the over-eager preemptor under
// tenant streams and demands the oracle catches the illegal reclaim.
func TestMutationGreedyPreemptor(t *testing.T) {
	alg, err := policy.NewWake(core.AlgFIFO, policy.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := mutantBackendAlg("greedy-preemptor", core.Config{
		Capacity: capacity, ContextOverhead: overhead,
		Algorithm: greedyPreemptor{Algorithm: alg},
	}, core.AlgFIFO)
	b.Tenants = tenantTable()
	detectMutation(t, b)
}
