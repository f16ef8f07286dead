// The dump document: "who holds what, who is suspended, and where is
// latency going" in one JSON document an operator can ask a live
// scheduler for without stopping it. The daemon only produces it; it
// leaves the process through internal/admin's /v1/dump.

package daemon

import (
	"encoding/json"

	"convgpu/internal/obs"
)

// maxTraceEvents caps the trace tail in one dump, so the document stays
// a summary however large the ring is; /v1/trace pages the whole ring.
const maxTraceEvents = 256

// Dump is the dump document: scheduler identity and pool state,
// per-container snapshot, the full metric snapshot, and the tail of the
// event trace (an obs.TraceDump).
type Dump struct {
	Algorithm  string            `json:"algorithm"`
	Capacity   int64             `json:"capacity"`
	PoolFree   int64             `json:"pool_free"`
	Devices    []DeviceDump      `json:"devices"`
	Containers []ContainerDump   `json:"containers"`
	Metrics    []obs.MetricPoint `json:"metrics"`
	Trace      json.RawMessage   `json:"trace"`
}

// DeviceDump is one device's pool in a dump. A single-device daemon
// reports exactly one entry with index 0.
type DeviceDump struct {
	Index      int   `json:"index"`
	Capacity   int64 `json:"capacity"`
	PoolFree   int64 `json:"pool_free"`
	Containers int   `json:"containers"`
}

// ContainerDump is one container's state in a dump.
type ContainerDump struct {
	ID             string `json:"id"`
	Device         int    `json:"device"`
	Limit          int64  `json:"limit"`
	Grant          int64  `json:"grant"`
	Used           int64  `json:"used"`
	Pending        int    `json:"pending"`
	Suspended      bool   `json:"suspended"`
	SuspendedNanos int64  `json:"suspended_nanos"`
}

// DumpJSON renders the full state dump with at most traceLimit trace
// events (0 or anything over the cap means the cap).
func (d *Daemon) DumpJSON(traceLimit int) ([]byte, error) {
	if traceLimit <= 0 || traceLimit > maxTraceEvents {
		traceLimit = maxTraceEvents
	}
	st := d.cfg.Core
	trace, err := d.obs.Tracer().DumpLimit("", traceLimit)
	if err != nil {
		return nil, err
	}
	p := Dump{
		Algorithm: st.AlgorithmName(),
		Capacity:  int64(st.Capacity()),
		PoolFree:  int64(st.PoolFree()),
		Metrics:   d.obs.Registry().Snapshot(),
		Trace:     trace,
	}
	for _, dev := range st.Devices() {
		p.Devices = append(p.Devices, DeviceDump{
			Index:      dev.Index,
			Capacity:   int64(dev.Capacity),
			PoolFree:   int64(dev.PoolFree),
			Containers: dev.Containers,
		})
	}
	for _, info := range st.Snapshot() {
		device, _ := st.Placement(info.ID)
		p.Containers = append(p.Containers, ContainerDump{
			ID:             string(info.ID),
			Device:         device,
			Limit:          int64(info.Limit),
			Grant:          int64(info.Grant),
			Used:           int64(info.Used),
			Pending:        info.Pending,
			Suspended:      info.Suspended,
			SuspendedNanos: info.SuspendedTotal.Nanoseconds(),
		})
	}
	return json.Marshal(p)
}
