package daemon

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"testing"

	"convgpu/internal/protocol"
)

// TestIntrospectionOverControlSocket: the control socket speaks only the
// paper's protocol. The introspection and admin verbs it used to answer
// are unknown message types now — refused with the request's seq echoed,
// so an old client sees an error instead of a hang — and the connection
// goes on to serve a register.
func TestIntrospectionOverControlSocket(t *testing.T) {
	d := startDaemon(t, mib(1000))
	conn, err := net.Dial("unix", d.ControlSocket())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	call := func(line string) protocol.Message {
		t.Helper()
		if _, err := fmt.Fprintln(conn, line); err != nil {
			t.Fatal(err)
		}
		reply, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		var m protocol.Message
		if err := json.Unmarshal(reply, &m); err != nil {
			t.Fatalf("%s: reply %q: %v", line, reply, err)
		}
		return m
	}

	for i, typ := range []string{"stats", "trace", "dump", "nodes", "drain", "revive", "sessions", "ops", "tenants"} {
		seq := uint64(i + 1)
		resp := call(fmt.Sprintf(`{"type":%q,"seq":%d}`, typ, seq))
		want := fmt.Sprintf("protocol: unknown message type %q", typ)
		if resp.OK || resp.Seq != seq || resp.Error != want {
			t.Errorf("%s on the control socket = %+v, want seq %d refused with %q", typ, resp, seq, want)
		}
	}
	resp := call(fmt.Sprintf(`{"type":"register","seq":10,"container":"c1","limit":%d}`, mib(400)))
	if !resp.OK || resp.Seq != 10 || resp.SocketDir == "" {
		t.Fatalf("register after the refusals = %+v", resp)
	}
}
