// Package policy is the one place a policy name becomes a policy. It
// holds three static tables — wake order (which paused container
// receives freed memory: the paper's redistribution algorithms, a
// core.Algorithm), device placement (which GPU a new container lands on,
// a multigpu.Policy) and node strategy (which node of a cluster, a
// cluster.Strategy) — and NewScheduler, the one assembly that builds any
// topology from those names.
//
// Every entry is a canonical name, the aliases that also select it
// (matched case-insensitively) and a constructor that takes a seed. The
// paper's four algorithms and the four legacy placement policies keep
// their historical names and short aliases; on top of them the tables
// carry the tenant-aware policies — weighted fair share (DRF-style
// deficit ordering), quota / guarantee shortfall ordering, priority with
// preemption — and fragmentation-aware placement for heterogeneous
// device sizes.
package policy

import (
	"fmt"
	"strings"

	"convgpu/internal/cluster"
	"convgpu/internal/core"
	"convgpu/internal/multigpu"
)

// Config carries a policy's construction parameters: Seed feeds the
// randomized ones (the random wake order and node strategy).
type Config struct {
	Seed int64
}

// entry is one row of a policy table.
type entry[T any] struct {
	name    string
	aliases []string
	build   func(seed int64) T
}

// table is one kind of policy, its rows in listing order.
type table[T any] struct {
	kind string
	rows []entry[T]
}

var wakes = table[core.Algorithm]{"wake policy", []entry[core.Algorithm]{
	{core.AlgFIFO, []string{"first-in-first-out"}, func(int64) core.Algorithm { return core.FIFO{} }},
	{core.AlgBestFit, []string{"bf", "best-fit"}, func(int64) core.Algorithm { return core.BestFit{} }},
	{core.AlgRecentUse, []string{"ru", "recent-use"}, func(int64) core.Algorithm { return core.RecentUse{} }},
	{core.AlgRandom, []string{"rand"}, func(seed int64) core.Algorithm { return core.NewRandom(seed) }},
	{WakeFairShare, []string{"fair-share", "fs", "drf"}, func(int64) core.Algorithm { return FairShare{} }},
	{WakeQuota, []string{"guarantee"}, func(int64) core.Algorithm { return Quota{} }},
	{WakePriority, []string{"prio", "preempt"}, func(int64) core.Algorithm { return Priority{} }},
}}

var places = table[multigpu.Policy]{"placement policy", []entry[multigpu.Policy]{
	{multigpu.PolicyRoundRobin, []string{"rr"}, func(int64) multigpu.Policy { return &multigpu.RoundRobin{} }},
	{multigpu.PolicyLeastLoaded, []string{"ll"}, func(int64) multigpu.Policy { return multigpu.LeastLoaded{} }},
	{multigpu.PolicyFirstFit, []string{"ff"}, func(int64) multigpu.Policy { return multigpu.FirstFit{} }},
	{multigpu.PolicyBestFit, []string{"bf"}, func(int64) multigpu.Policy { return multigpu.BestFitDevice{} }},
	{PlaceFragAware, []string{"frag", "fragmentation-aware"}, func(int64) multigpu.Policy { return FragAware{} }},
}}

var strategies = table[cluster.Strategy]{"node strategy", []entry[cluster.Strategy]{
	{cluster.StrategySpread, nil, func(int64) cluster.Strategy { return cluster.Spread{} }},
	{cluster.StrategyBinpack, nil, func(int64) cluster.Strategy { return cluster.Binpack{} }},
	{cluster.StrategyRandom, []string{"rand"}, func(seed int64) cluster.Strategy { return cluster.NewRandomStrategy(seed) }},
}}

// find returns the row name or one of its aliases selects; an unknown
// name fails with the full list.
func (t table[T]) find(name string) (entry[T], error) {
	for _, e := range t.rows {
		if strings.EqualFold(name, e.name) {
			return e, nil
		}
		for _, a := range e.aliases {
			if strings.EqualFold(name, a) {
				return e, nil
			}
		}
	}
	return entry[T]{}, fmt.Errorf("policy: unknown %s %q (have %s)", t.kind, name, strings.Join(t.names(), "|"))
}

func (t table[T]) names() []string {
	out := make([]string, len(t.rows))
	for i, e := range t.rows {
		out[i] = e.name
	}
	return out
}

func (t table[T]) build(name string, cfg Config) (T, error) {
	e, err := t.find(name)
	if err != nil {
		var zero T
		return zero, err
	}
	return e.build(cfg.Seed), nil
}

func (t table[T]) resolve(name string) (string, bool) {
	e, err := t.find(name)
	return e.name, err == nil
}

// NewWake constructs the named wake-order policy.
func NewWake(name string, cfg Config) (core.Algorithm, error) { return wakes.build(name, cfg) }

// NewPlace constructs the named device placement policy.
func NewPlace(name string, cfg Config) (multigpu.Policy, error) { return places.build(name, cfg) }

// NewStrategy constructs the named node strategy.
func NewStrategy(name string, cfg Config) (cluster.Strategy, error) {
	return strategies.build(name, cfg)
}

// WakeNames lists the wake-order policies, the paper's four first.
func WakeNames() []string { return wakes.names() }

// PlaceNames lists the device placement policies, the legacy four first.
func PlaceNames() []string { return places.names() }

// StrategyNames lists the node strategies.
func StrategyNames() []string { return strategies.names() }

// ResolveWake maps a wake policy name or alias to its canonical name,
// reporting whether it is known. CLIs use it to accept legacy spellings
// while printing the canonical name.
func ResolveWake(name string) (string, bool) { return wakes.resolve(name) }

// ResolvePlace is ResolveWake for placement policies.
func ResolvePlace(name string) (string, bool) { return places.resolve(name) }
