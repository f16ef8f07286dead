package convgpu_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"convgpu"
)

// TestStackClusterNodes drives the node failure-domain surface through
// the facade: a multi-node stack reports membership, drain/revive steer
// admission, and with every node drained a
// workload fails closed with ErrDaemonUnavailable.
func TestStackClusterNodes(t *testing.T) {
	st := newStack(t,
		convgpu.WithNodes(2),
		convgpu.WithCapacity(2*convgpu.GiB),
		convgpu.WithNodeHealth(time.Hour), // exercises start/stop of the health loop
	)
	ctx := context.Background()

	nodes, err := st.Nodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].State != "up" || nodes[1].State != "up" {
		t.Fatalf("nodes = %+v, want 2 up", nodes)
	}

	runOne(t, st.Run, "c1")

	if err := st.DrainNode(ctx, 1); err != nil {
		t.Fatal(err)
	}
	nodes, err = st.Nodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if nodes[1].State != "draining" {
		t.Fatalf("node 1 after drain = %+v", nodes[1])
	}
	// One node still up: work proceeds.
	runOne(t, st.Run, "c2")

	// Both drained: admission fails closed, and the sentinel survives the
	// control socket's round trip.
	if err := st.DrainNode(ctx, 0); err != nil {
		t.Fatal(err)
	}
	_, err = st.Run(ctx, convgpu.RunOptions{
		Name:         "c3",
		Image:        convgpu.CUDAImage("app", ""),
		NvidiaMemory: 512 * convgpu.MiB,
		Program:      func(p *convgpu.Proc) error { return nil },
	})
	if !errors.Is(err, convgpu.ErrDaemonUnavailable) {
		t.Fatalf("run with all nodes draining: %v, want ErrDaemonUnavailable", err)
	}

	if err := st.ReviveNode(ctx, 0); err != nil {
		t.Fatal(err)
	}
	runOne(t, st.Run, "c4")

	// Unknown node index: refused with a plain error, not a panic.
	if err := st.DrainNode(ctx, 9); err == nil {
		t.Fatal("drain of unknown node succeeded")
	}
}

// TestStackNodeOptionsValidate pins the option validation errors.
func TestStackNodeOptionsValidate(t *testing.T) {
	if _, err := convgpu.New(convgpu.WithNodes(0)); err == nil {
		t.Fatal("WithNodes(0) accepted")
	}
	if _, err := convgpu.New(convgpu.WithNodeStrategy("")); err == nil {
		t.Fatal("empty strategy accepted")
	}
	if _, err := convgpu.New(convgpu.WithNodeStrategy("nope"), convgpu.WithNodes(2)); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := convgpu.New(convgpu.WithNodeHealth(-time.Second)); err == nil {
		t.Fatal("negative health interval accepted")
	}
}

// TestStackSingleNodeHasNoMembership: without WithNodes the membership
// verbs answer a plain error — the backend has no node surface.
func TestStackSingleNodeHasNoMembership(t *testing.T) {
	st := newStack(t, convgpu.WithCapacity(convgpu.GiB))
	if _, err := st.Nodes(context.Background()); err == nil {
		t.Fatal("Nodes succeeded on a single-node stack")
	}
}
