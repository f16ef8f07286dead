package model

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"convgpu"
	"convgpu/internal/admin"
	"convgpu/internal/asyncop"
	"convgpu/internal/bytesize"
	"convgpu/internal/cluster"
	"convgpu/internal/container"
	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/daemon"
	"convgpu/internal/errs"
	"convgpu/internal/gpu"
	"convgpu/internal/ipc"
	"convgpu/internal/nvdocker"
	"convgpu/internal/plugin"
	"convgpu/internal/protocol"
	"convgpu/internal/wrapper"
)

// TestErrorTable walks internal/errs's table: every class's code maps
// back to its sentinel, wrapped or not, crosses a JSON and a binary
// response unchanged, and decodes from a binary error response with no
// allocation. Then it drives each class a surface can reach through that
// surface, against a real two-node daemon: the wrapper's CUDA error from
// the daemon's handler (through daemon.Caller), a one-way report's
// Refusal, nvidia-docker's create, and a failed /v1 operation's code.
// Every error it collects must match its row's sentinel, the facade's
// sentinel of that name, and the row's code as the model harness's
// errClass, and its message must name the sentinel once.
func TestErrorTable(t *testing.T) {
	facade := map[error]error{
		errs.ErrOverCapacity:      convgpu.ErrOverCapacity,
		errs.ErrRejected:          convgpu.ErrRejected,
		errs.ErrDaemonUnavailable: convgpu.ErrDaemonUnavailable,
		errs.ErrNodeDown:          convgpu.ErrNodeDown, // ErrUnknownContainer has no facade name
	}
	for _, c := range errs.Classes {
		wrapped := fmt.Errorf("ctx: %w", c.Err)
		if got := errs.Code(wrapped); got != c.Code {
			t.Errorf("Code(wrapped %v) = %q, want %q", c.Err, got, c.Code)
		}
		if got := errs.FromCode(c.Code); got != c.Err {
			t.Errorf("FromCode(%q) = %v, want %v", c.Code, got, c.Err)
		}
		resp := &protocol.Message{Type: protocol.TypeResponse, Seq: 9, Error: "refused", Code: c.Code}
		var viaJSON, viaBinary protocol.Message
		if err := protocol.DecodeInto(&viaJSON, protocol.AppendEncode(nil, resp)); err != nil || viaJSON != *resp {
			t.Errorf("%s through JSON = %+v (%v)", c.Code, viaJSON, err)
		}
		if decodeBinary(t, resp, &viaBinary); viaBinary != *resp {
			t.Errorf("%s through binary = %+v", c.Code, viaBinary)
		}
		// The error text is copied; the code alone costs nothing.
		if n := decodeBinary(t, &protocol.Message{Type: protocol.TypeResponse, Seq: 9, Code: c.Code}, &viaBinary); n != 0 {
			t.Errorf("binary %s response decodes with %v allocations, want 0", c.Code, n)
		}
	}
	if errs.Code(nil) != "" || errs.Code(errors.New("misc")) != "" || errs.FromCode("") != nil || errs.FromCode("misc") != nil {
		t.Error("an error with no class has a code, or a code no class")
	}

	got := surfaces(t)
	for _, c := range errs.Classes {
		if len(got[c.Err]) == 0 {
			t.Errorf("no surface produced %s", c.Code)
		}
		for _, err := range got[c.Err] {
			if !errors.Is(err, c.Err) {
				t.Errorf("%s: %v is not %v", c.Code, err, c.Err)
			}
			if f := facade[c.Err]; f != nil && !errors.Is(err, f) {
				t.Errorf("%s: %v is not the facade's %v", c.Code, err, f)
			}
			if class := errClass(err); class != c.Code {
				t.Errorf("%s: errClass(%v) = %q", c.Code, err, class)
			}
			if n := strings.Count(err.Error(), c.Err.Error()); n != 1 {
				t.Errorf("%s: %q names %q %d times, want once", c.Code, err, c.Err, n)
			}
		}
	}
}

// decodeBinary encodes m as a binary frame and decodes it into into,
// returning the allocations the decode took.
func decodeBinary(t *testing.T, m, into *protocol.Message) float64 {
	t.Helper()
	frame, ok := protocol.AppendEncodeBinary(nil, m)
	if !ok {
		t.Fatalf("%+v has no binary form", m)
	}
	op, _, seq, err := protocol.ParseBinaryHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[protocol.BinaryHeaderSize:]
	return testing.AllocsPerRun(100, func() {
		*into = protocol.Message{}
		if err := protocol.DecodeBinaryInto(into, op, seq, payload); err != nil {
			t.Fatal(err)
		}
	})
}

// surfaces drives every class each surface can produce on a two-node
// daemon of 500 MiB a node and returns what came out, by sentinel.
func surfaces(t *testing.T) map[error][]error {
	mib := func(n int) bytesize.Size { return bytesize.Size(n) * bytesize.MiB }
	clus, err := cluster.New(cluster.Config{
		Nodes: 2, GPUsPerNode: 1, CapacityPerGPU: mib(500), Device: core.Config{ContextOverhead: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := daemon.Start(daemon.Config{BaseDir: filepath.Join(t.TempDir(), "cv"), Core: clus})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	ctl, err := ipc.Dial(d.ControlSocket())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	eng, err := container.NewEngine(container.Config{Device: gpu.New(gpu.K20m())})
	if err != nil {
		t.Fatal(err)
	}
	nv := nvdocker.New(eng, ctl, plugin.New(ctl))
	h, err := admin.New(admin.Config{Daemon: d})
	if err != nil {
		t.Fatal(err)
	}
	dev := gpu.New(gpu.K20m())
	malloc := func(id core.ContainerID, pid int, size bytesize.Size) error {
		_, err := wrapper.New(cuda.NewRuntime(dev, pid), d.Caller(id), pid).Malloc(size)
		if err != nil && !errors.Is(err, cuda.ErrorMemoryAllocation) {
			t.Errorf("malloc of %s failed with %v, not the CUDA out-of-memory error", id, err)
		}
		return err
	}
	create := func(name string, limit bytesize.Size) error {
		_, err := nv.Create(context.Background(), nvdocker.Options{
			Name: name, Image: convgpu.CUDAImage("app", ""), NvidiaMemory: limit,
			Program: func(*container.Proc) error { return nil },
		})
		return err
	}
	opErr := func(target string) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, nil))
		var op asyncop.Operation
		if err := json.Unmarshal(rec.Body.Bytes(), &op); rec.Code != http.StatusAccepted || err != nil {
			t.Fatalf("POST %s = %d: %s", target, rec.Code, rec.Body)
		}
		for deadline := time.Now().Add(5 * time.Second); op.Status != asyncop.StatusCompleted; time.Sleep(time.Millisecond) {
			if op, _ = d.Ops().Get(op.ID); op.Status == asyncop.StatusFailed {
				return &protocol.Refusal{Text: op.Error, Code: op.Code}
			}
			if time.Now().After(deadline) {
				t.Fatalf("operation %s never finished", op.ID)
			}
		}
		return nil
	}
	got := make(map[error][]error)
	add := func(err error) {
		if err == nil {
			t.Fatal("a surface that must fail succeeded")
		}
		for _, c := range errs.Classes {
			if errors.Is(err, c.Err) {
				got[c.Err] = append(got[c.Err], err)
				return
			}
		}
		t.Errorf("%v has no class", err)
	}

	add(create("huge", mib(600)))                    // over_capacity: no node holds it
	add(malloc("ghost", 1, mib(1)))                  // unknown_container
	add(d.Caller("ghost").Post(context.Background(), // unknown_container, one-way
		&protocol.Message{Type: protocol.TypeFree, PID: 1, Addr: 4096}))
	if err := d.DrainNode(1); err != nil { // everything lands on node 0
		t.Fatal(err)
	}
	if err := create("c0", mib(450)); err != nil {
		t.Fatal(err)
	}
	add(malloc("c0", 1, mib(460))) // rejected: over the limit
	if err := create("c1", mib(450)); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() { parked <- malloc("c1", 2, mib(200)) }() // grant 50 MiB: suspends
	waitPending(t, clus, "c1")
	if err := opErr("/v1/nodes/0/failover"); err != nil {
		t.Fatal(err)
	}
	add(<-parked)                           // node_down: no node left to move c1 to
	add(opErr("/v1/nodes/0/drain"))         // node_down
	add(create("late", mib(100)))           // unavailable: no node takes registrations
	if err := d.ReviveNode(1); err != nil { // the shutdown case needs a node
		t.Fatal(err)
	}
	for _, id := range []string{"c2", "c3"} {
		if err := create(id, mib(450)); err != nil {
			t.Fatal(err)
		}
	}
	if err := malloc("c2", 3, mib(400)); err != nil {
		t.Fatal(err)
	}
	go func() { parked <- malloc("c3", 4, mib(200)) }()
	waitPending(t, clus, "c3")
	d.Close()
	add(<-parked) // unavailable: the daemon shut down
	return got
}

// waitPending waits until id has a suspended allocation.
func waitPending(t *testing.T, s core.Scheduler, id core.ContainerID) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if info, err := s.Info(id); err == nil && info.Pending > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never suspended", id)
		}
	}
}
