package core_test

import (
	"reflect"
	"testing"

	"convgpu/internal/core"
	"convgpu/internal/policy"
)

// TestNewAlgorithm: the paper's four names and their aliases, in any
// letter case, build core's own algorithms. internal/policy owns the
// name mapping and imports core, so this lives in the external test
// package.
func TestNewAlgorithm(t *testing.T) {
	want := map[string]core.Algorithm{
		"fifo": core.FIFO{}, "FIFO": core.FIFO{},
		"bestfit": core.BestFit{}, "bf": core.BestFit{}, "Best-Fit": core.BestFit{},
		"recentuse": core.RecentUse{}, "ru": core.RecentUse{},
		"random": core.NewRandom(1), "rand": core.NewRandom(1),
	}
	for name, w := range want {
		a, err := policy.NewWake(name, policy.Config{Seed: 1})
		if err != nil {
			t.Errorf("NewWake(%q): %v", name, err)
			continue
		}
		if reflect.TypeOf(a) != reflect.TypeOf(w) || a.Name() != w.Name() {
			t.Errorf("NewWake(%q) = %T %q, want %T %q", name, a, a.Name(), w, w.Name())
		}
	}
	if _, err := policy.NewWake("lru", policy.Config{Seed: 1}); err == nil {
		t.Error("NewWake(lru) should fail")
	}
}
