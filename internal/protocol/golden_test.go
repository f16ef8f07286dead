package protocol

import (
	"bytes"
	"reflect"
	"testing"
)

// goldenLines pins the JSON wire format. Every line was captured from
// the hand-rolled encoder this package shipped before JSON moved to
// encoding/json — one per Type, every optional field set at least once —
// so a peer built from the older code still reads what this one writes
// and the other way round.
var goldenLines = []struct {
	line string
	want Message
}{
	{`{"type":"register","seq":1,"container":"c1","limit":536870912,"tenant":"team-a","tenant_weight":3,"tenant_priority":-2,"tenant_quota":2147483648,"tenant_guarantee":268435456}`,
		Message{Type: TypeRegister, Seq: 1, Container: "c1", Limit: 536870912, Tenant: "team-a", TenantWeight: 3, TenantPriority: -2, TenantQuota: 2147483648, TenantGuarantee: 268435456}},
	{`{"type":"alloc","seq":7,"pid":41,"size":4194304,"api":"cudaMalloc"}`,
		Message{Type: TypeAlloc, Seq: 7, PID: 41, Size: 4194304, API: "cudaMalloc"}},
	{`{"type":"confirm","seq":8,"pid":41,"size":4194304,"addr":18446744073709551615}`,
		Message{Type: TypeConfirm, Seq: 8, PID: 41, Size: 4194304, Addr: 1<<64 - 1}},
	{`{"type":"abort","seq":9,"pid":41,"size":4194304}`,
		Message{Type: TypeAbort, Seq: 9, PID: 41, Size: 4194304}},
	{`{"type":"free","seq":10,"pid":41,"addr":4096,"api":"cudaFree"}`,
		Message{Type: TypeFree, Seq: 10, PID: 41, Addr: 4096, API: "cudaFree"}},
	{`{"type":"procexit","seq":11,"pid":41}`,
		Message{Type: TypeProcExit, Seq: 11, PID: 41}},
	{`{"type":"close","seq":12,"container":"c1"}`,
		Message{Type: TypeClose, Seq: 12, Container: "c1"}},
	{`{"type":"meminfo","seq":13,"pid":41}`,
		Message{Type: TypeMemInfo, Seq: 13, PID: 41}},
	{`{"type":"attach","seq":14,"pid":41,"tenant":"team-a"}`,
		Message{Type: TypeAttach, Seq: 14, PID: 41, Tenant: "team-a"}},
	{`{"type":"restore","seq":15,"pid":41,"size":104857600,"addr":160}`,
		Message{Type: TypeRestore, Seq: 15, PID: 41, Size: 104857600, Addr: 160}},
	{`{"type":"heartbeat","seq":16}`,
		Message{Type: TypeHeartbeat, Seq: 16}},
	{`{"type":"codec","seq":20,"data":"bin1"}`,
		Message{Type: TypeCodec, Seq: 20, Data: BinaryCodecToken}},
	{`{"type":"response","seq":7,"ok":true,"decision":"accept"}`,
		Message{Type: TypeResponse, Seq: 7, OK: true, Decision: DecisionAccept}},
	{`{"type":"response","seq":1,"ok":true,"granted":536870912,"socket_dir":"/run/convgpu/containers/c1","device":2}`,
		Message{Type: TypeResponse, Seq: 1, OK: true, Granted: 536870912, SocketDir: "/run/convgpu/containers/c1", Device: 2}},
	{`{"type":"response","seq":13,"ok":true,"free":469762048,"total":536870912}`,
		Message{Type: TypeResponse, Seq: 13, OK: true, Free: 469762048, Total: 536870912}},
	{`{"type":"response","seq":17,"ok":true,"data":"{\"metrics\":[{\"name\":\"a<b&c>\"}]}"}`,
		Message{Type: TypeResponse, Seq: 17, OK: true, Data: `{"metrics":[{"name":"a<b&c>"}]}`}},
	{`{"type":"response","seq":7,"ok":true,"code":"rejected","decision":"reject"}`,
		Message{Type: TypeResponse, Seq: 7, OK: true, Code: CodeRejected, Decision: DecisionReject}},
	{`{"type":"response","seq":2,"error":"a \"quoted\" \\ path\nline\ttab\u0001ctl","code":"unavailable"}`,
		Message{Type: TypeResponse, Seq: 2, Error: "a \"quoted\" \\ path\nline\ttab\x01ctl", Code: CodeUnavailable}},
	{`{"type":"response","seq":3,"error":"Aé☃😀"}`,
		Message{Type: TypeResponse, Seq: 3, Error: "Aé☃😀"}},
	{`{"type":"response","seq":4,"decision":"suspend"}`,
		Message{Type: TypeResponse, Seq: 4, Decision: DecisionSuspend}},
}

// TestWireFormatGolden: each captured line decodes to the Message it
// was captured from, that Message encodes back to the captured bytes,
// and the pair round-trips.
func TestWireFormatGolden(t *testing.T) {
	for _, g := range goldenLines {
		var got Message
		if err := DecodeInto(&got, []byte(g.line)); err != nil {
			t.Errorf("DecodeInto(%s): %v", g.line, err)
			continue
		}
		if !reflect.DeepEqual(got, g.want) {
			t.Errorf("DecodeInto(%s)\n got %+v\nwant %+v", g.line, got, g.want)
		}
		enc := AppendEncode(nil, &g.want)
		if string(enc) != g.line+"\n" {
			t.Errorf("AppendEncode(%+v)\n got %s\nwant %s", g.want, enc, g.line)
		}
		var back Message
		if err := DecodeInto(&back, bytes.TrimSuffix(enc, []byte("\n"))); err != nil || !reflect.DeepEqual(back, g.want) {
			t.Errorf("round trip of %+v = %+v, %v", g.want, back, err)
		}
	}
}
