package model_test

import (
	"flag"
	"fmt"
	"testing"

	"convgpu/internal/bytesize"
	"convgpu/internal/cluster"
	"convgpu/internal/core"
	"convgpu/internal/model"
	"convgpu/internal/policy"
)

// The short run (defaults) keeps `go test ./...` fast; `make model`
// raises both, and `make model-long` goes further still. To replay a
// reported failure: -model.seed pins the generator to exactly one seed.
var (
	seedCount = flag.Int("model.seeds", 4, "seeds per algorithm/backend combination")
	opCount   = flag.Int("model.ops", 300, "ops per generated stream")
	onlySeed  = flag.Int64("model.seed", -1, "replay a single generator seed (overrides -model.seeds)")
)

const (
	capacity = bytesize.GiB
	overhead = core.DefaultContextOverhead
)

// backends returns the three topologies the oracle checks, each built
// by policy.NewScheduler around the given wake policy and seed: a single
// core.State, a 2-device multigpu.State, and a 2x2 cluster.Cluster.
// Restarts are exercised on the first two; cluster recovery migrates
// claims across nodes (every un-pinned claim lands on the first
// accepting node), which is a placement-policy question the sequential
// model does not answer, so restart ops are disabled there.
func backends(alg string, seed int64) []model.Backend {
	build := func(nodes, devices int) func() (core.Scheduler, error) {
		return func() (core.Scheduler, error) {
			return policy.NewScheduler(policy.Spec{
				Nodes: nodes, Devices: devices, Capacity: capacity,
				Wake: alg, Seed: seed, Device: core.Config{ContextOverhead: overhead},
			})
		}
	}
	single, multi, clus := build(1, 1), build(1, 2), build(2, 2)
	return []model.Backend{
		{
			Name: "core", New: single, Restart: single,
			Model: func() *model.Model {
				return model.New(model.Config{
					Devices: 1, Capacity: capacity, Overhead: overhead,
					Algorithm: alg, AlgSeeds: []int64{seed},
				})
			},
		},
		{
			Name: "multigpu-2", New: multi, Restart: multi,
			Model: func() *model.Model {
				return model.New(model.Config{
					Devices: 2, Capacity: capacity, Overhead: overhead,
					Algorithm: alg, AlgSeeds: []int64{seed, seed + 1}, Routed: true,
				})
			},
		},
		{
			Name: "cluster-2x2", New: clus,
			Model: func() *model.Model {
				return model.New(model.Config{
					Devices: 4, Capacity: capacity, Overhead: overhead,
					Algorithm: alg,
					AlgSeeds:  []int64{seed, seed + 1, seed + 100, seed + 101},
					Routed:    true,
				})
			},
			DeviceOf: func(s core.Scheduler, id core.ContainerID) (int, error) {
				node, dev, err := s.(*cluster.Cluster).NodePlacement(id)
				if err != nil {
					return -1, err
				}
				return node*2 + dev, nil
			},
			Nodes: 2, GPUsPerNode: 2,
			FailNode: func(s core.Scheduler, node int) (core.FailoverReport, error) {
				return s.(*cluster.Cluster).FailNode(node)
			},
			Revive: func(s core.Scheduler, node int) error {
				return s.(*cluster.Cluster).Revive(node)
			},
		},
	}
}

// reportDivergence shrinks the failing stream to a minimal reproducer
// and fails the test with a replayable trace.
func reportDivergence(t *testing.T, b model.Backend, alg string, seed int64, ops []model.Op, div *model.Divergence) {
	t.Helper()
	min := model.Shrink(ops, func(sub []model.Op) bool { return model.Fails(b, sub) })
	d, err := model.RunOps(b, min)
	if err != nil || d == nil {
		// Shrinking should preserve the failure; fall back to the
		// original stream if it somehow did not.
		min, d = ops, div
	}
	t.Fatalf("%s/%s diverges from the reference model (seed=%d, %d ops)\nfirst divergence: %v\nminimal reproducer (%d ops):\n%s"+
		"replay: go test ./internal/model -run 'TestConformance' -model.seed=%d -model.ops=%d",
		b.Name, alg, seed, len(ops), d, len(min), model.FormatOps(min), seed, len(ops))
}

func seedsToRun() []int64 {
	if *onlySeed >= 0 {
		return []int64{*onlySeed}
	}
	out := make([]int64, *seedCount)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// TestConformance drives every algorithm on every topology through
// seeded op streams, comparing each step and each post-step snapshot
// against the sequential reference model.
func TestConformance(t *testing.T) {
	for _, alg := range core.AlgorithmNames() {
		for _, seed := range seedsToRun() {
			for _, b := range backends(alg, seed) {
				b, alg, seed := b, alg, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", alg, b.Name, seed), func(t *testing.T) {
					t.Parallel()
					g := model.DefaultGenConfig()
					g.Restarts = b.Restart != nil
					ops := model.Generate(seed, *opCount, g)
					div, err := model.RunOps(b, ops)
					if err != nil {
						t.Fatalf("harness error: %v", err)
					}
					if div != nil {
						reportDivergence(t, b, alg, seed, ops, div)
					}
				})
			}
		}
	}
}

// TestConformanceRestartHeavy skews the stream toward restarts so the
// recovery replay path (RestorePlacement → EnsureRegistered → Restore)
// is hit many times per run, checking restart idempotence: recovering
// the same live set must reproduce the same grants and pools.
func TestConformanceRestartHeavy(t *testing.T) {
	for _, alg := range []string{core.AlgFIFO, core.AlgBestFit} {
		for _, seed := range seedsToRun() {
			for _, b := range backends(alg, seed)[:2] { // core + multigpu support restart
				b, alg, seed := b, alg, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", alg, b.Name, seed), func(t *testing.T) {
					t.Parallel()
					g := model.DefaultGenConfig()
					g.Restarts = true
					ops := model.Generate(seed+7000, *opCount, g)
					// Densify restarts: every 25th op becomes one.
					for i := 12; i < len(ops); i += 25 {
						ops[i] = model.Op{Kind: model.OpRestart}
					}
					div, err := model.RunOps(b, ops)
					if err != nil {
						t.Fatalf("harness error: %v", err)
					}
					if div != nil {
						reportDivergence(t, b, alg, seed, ops, div)
					}
				})
			}
		}
	}
}

// TestConformanceNodeKill is the failure-domain headline: on the 2x2
// cluster, streams densified with node kills must keep the real backend
// and the model in lockstep through every failover — which mechanically
// asserts that across any schedule of node kills, every parked ticket
// is either served, migrated, or observably rejected, never silently
// lost (the harness's nodeKill step accounts each one exactly once).
// At least 15 seeds per algorithm run regardless of -model.seeds, so
// the default sweep covers 60+ seeded kill schedules.
func TestConformanceNodeKill(t *testing.T) {
	seeds := seedsToRun()
	if *onlySeed < 0 && len(seeds) < 15 {
		seeds = make([]int64, 15)
		for i := range seeds {
			seeds[i] = int64(i + 1)
		}
	}
	for _, alg := range core.AlgorithmNames() {
		for _, seed := range seeds {
			b := backends(alg, seed)[2] // cluster-2x2
			b, alg, seed := b, alg, seed
			t.Run(fmt.Sprintf("%s/%s/seed%d", alg, b.Name, seed), func(t *testing.T) {
				t.Parallel()
				g := model.DefaultGenConfig()
				g.NodeKills = true
				ops := model.Generate(seed+9000, *opCount, g)
				// Densify kills: every 20th op becomes one, alternating the
				// victim node via the generator-drawn pick.
				for i := 15; i < len(ops); i += 20 {
					ops[i] = model.Op{Kind: model.OpNodeKill, Pick: i / 20}
				}
				div, err := model.RunOps(b, ops)
				if err != nil {
					t.Fatalf("harness error: %v", err)
				}
				if div != nil {
					reportDivergence(t, b, alg, seed, ops, div)
				}
			})
		}
	}
}

// TestShrinkSubsequencesExecutable pins the property ddmin relies on:
// any subsequence of a generated stream runs without harness errors.
func TestShrinkSubsequencesExecutable(t *testing.T) {
	b := backends(core.AlgFIFO, 1)[0]
	g := model.DefaultGenConfig()
	ops := model.Generate(42, 120, g)
	// Drop every third op: the result must still execute cleanly.
	var sub []model.Op
	for i, o := range ops {
		if i%3 != 0 {
			sub = append(sub, o)
		}
	}
	div, err := model.RunOps(b, sub)
	if err != nil {
		t.Fatalf("subsequence not executable: %v", err)
	}
	if div != nil {
		t.Fatalf("subsequence diverged: %v", div)
	}
}
