package convgpu_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"convgpu"
)

// TestStackGettersMatchAdminRoutes: every document has one producer, so
// on the same idle stack each Stack getter and its /v1 route return the
// same JSON — a 2-node stack with a named tenant and one container held
// open, so that no document is trivially empty.
func TestStackGettersMatchAdminRoutes(t *testing.T) {
	st := newStack(t,
		convgpu.WithNodes(2),
		convgpu.WithCapacity(2*convgpu.GiB),
		convgpu.WithTenant(convgpu.Tenant{Name: "gold", Weight: 3, Quota: convgpu.GiB}),
	)
	ctx := context.Background()
	allocated, release := make(chan struct{}), make(chan struct{})
	c, err := st.Run(ctx, convgpu.RunOptions{
		Name:         "held",
		Image:        convgpu.CUDAImage("app", ""),
		NvidiaMemory: 512 * convgpu.MiB,
		Tenant:       "gold",
		Program: func(p *convgpu.Proc) error {
			ptr, err := p.CUDA.Malloc(64 * convgpu.MiB)
			if err == nil {
				// A round trip carries the Malloc's confirm out, or it
				// would arrive (≤ 1 ms later) between a getter and its route.
				_, _, err = p.CUDA.MemGetInfo()
			}
			close(allocated)
			if err != nil {
				return err
			}
			<-release
			return p.CUDA.Free(ptr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		if err := c.Wait(); err != nil {
			t.Error(err)
		}
	}()
	<-allocated

	h, err := st.AdminHandler()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	route := func(method, path string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s = %d %s (%v)", method, path, resp.StatusCode, body, err)
		}
		return body
	}
	// same compares the getter's answer (a JSON document, or a value
	// marshalled into one) with the route's body, as decoded JSON;
	// volatile names top-level keys to leave out (timestamps).
	same := func(path string, got any, gerr error, volatile ...string) {
		t.Helper()
		if gerr != nil {
			t.Fatalf("getter for %s: %v", path, gerr)
		}
		doc, ok := got.([]byte)
		if !ok {
			if doc, err = json.Marshal(got); err != nil {
				t.Fatal(err)
			}
		}
		var a, b any
		if err := json.Unmarshal(doc, &a); err != nil {
			t.Fatalf("getter for %s is not JSON: %v", path, err)
		}
		if err := json.Unmarshal(route("GET", path), &b); err != nil {
			t.Fatalf("GET %s is not JSON: %v", path, err)
		}
		for _, k := range volatile {
			delete(a.(map[string]any), k)
			delete(b.(map[string]any), k)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: getter and route disagree\ngetter %s\n route %s", path, doc, route("GET", path))
		}
	}

	// submit posts one verb and polls its operation, through the facade,
	// until it has completed.
	submit := func(path string) convgpu.Operation {
		t.Helper()
		var op convgpu.Operation
		if err := json.Unmarshal(route("POST", path), &op); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); op.Status != "completed"; {
			if op.Status == "failed" || time.Now().After(deadline) {
				t.Fatalf("POST %s: operation = %+v", path, op)
			}
			time.Sleep(time.Millisecond)
			if op, err = st.Operation(ctx, op.ID); err != nil {
				t.Fatal(err)
			}
		}
		return op
	}

	// A verb through each side first, so operations and the trace hold
	// admin events too.
	if err := st.DrainNode(ctx, 1); err != nil {
		t.Fatal(err)
	}
	op := submit("/v1/nodes/1/revive")

	stats, err := st.Stats(ctx)
	same("/v1/stats", stats, err, "at_unix_nano")
	trace, err := st.Trace(ctx, "")
	same("/v1/trace", trace, err)
	trace, err = st.Trace(ctx, "held")
	same("/v1/trace?container=held", trace, err)
	page, err := st.TracePage(ctx, "", 1, 2)
	same("/v1/trace?after=1&limit=2", page, err)
	dump, err := st.Dump(ctx)
	same("/v1/dump", dump, err)
	sessions, err := st.Sessions(ctx, "", 0)
	same("/v1/sessions", sessions, err)
	tenants, err := st.Tenants(ctx)
	same("/v1/tenants", tenants, err)
	nodes, err := st.Nodes(ctx)
	same("/v1/nodes", nodes, err)
	ops, err := st.Operations(ctx)
	same("/v1/operations", ops, err)
	one, err := st.Operation(ctx, op.ID)
	same("/v1/operations/"+op.ID, one, err)

	// Not trivially equal: the documents carry the held container, its
	// tenant, both nodes and the revive.
	if len(sessions.Sessions) != 1 || len(tenants) != 1 || tenants[0].Name != "gold" || len(nodes) != 2 || len(ops) != 1 {
		t.Errorf("documents: sessions %+v tenants %+v nodes %+v ops %+v", sessions, tenants, nodes, ops)
	}
	// The backend's errors reach the caller with their sentinels: no
	// socket hop strips them.
	if _, err := st.Operation(ctx, "op-404"); err == nil {
		t.Error("Operation(op-404) succeeded")
	}
	if err := st.DrainNode(ctx, 9); err == nil {
		t.Error("drain of unknown node succeeded")
	}
	submit("/v1/nodes/1/failover")
	if err := st.DrainNode(ctx, 1); !errors.Is(err, convgpu.ErrNodeDown) {
		t.Errorf("drain of a down node = %v, want ErrNodeDown", err)
	}
	if err := st.ReviveNode(ctx, 1); err != nil {
		t.Errorf("revive of the down node: %v", err)
	}
}
