// Command convgpu-stats queries a running scheduler daemon's admin
// plane over its UNIX socket (<basedir>/admin.sock, which
// convgpu-scheduler always serves): the same /v1 documents and verbs
// the -http endpoint offers, but with no open port — only access to the
// socket path.
//
// Usage:
//
//	convgpu-stats -socket /var/run/convgpu/admin.sock stats
//	convgpu-stats -socket /var/run/convgpu/admin.sock trace [container]
//	convgpu-stats -socket /var/run/convgpu/admin.sock dump
//	convgpu-stats -socket /var/run/convgpu/admin.sock devices
//	convgpu-stats -socket /var/run/convgpu/admin.sock sessions [after]
//	convgpu-stats -socket /var/run/convgpu/admin.sock ops [id]
//	convgpu-stats -socket /var/run/convgpu/admin.sock tenants
//	convgpu-stats -socket /var/run/convgpu/admin.sock nodes
//	convgpu-stats -socket /var/run/convgpu/admin.sock drain 0
//	convgpu-stats -socket /var/run/convgpu/admin.sock revive 0
//	convgpu-stats load [BENCH_load.json]
//
// The trace query follows /v1/trace's page cursor until the ring is
// exhausted, so a trace larger than one page is printed whole. The
// sessions query pages the registered-session listing (pass the last
// container ID printed to continue); ops lists the admin plane's
// retained operations, or polls one by ID.
//
// The tenants query renders the per-tenant usage rollup — one row per
// named tenant with its configured weight, priority, quota and
// guarantee next to its live container count, granted and used memory —
// on a daemon whose containers registered under tenant identities.
//
// The devices query renders the dump's per-device breakdown as a table
// (one row per GPU plus each container's device assignment) instead of
// raw JSON. The nodes query renders the cluster membership view — one
// row per node with its state, free memory and failover count — and
// drain / revive are the admin verbs of that view: drain makes a node
// refuse new containers while existing ones complete, revive returns a
// drained or down node to service. Both are submitted as operations
// (they show up under ops and in the trace, with their request ID) and
// polled to completion inside -timeout. All three require the daemon to
// run the cluster tier (convgpu-scheduler -nodes).
//
// The load query is local, not a daemon round trip: it reads the
// BENCH_load.json artifact `make bench-load` wrote (default name, or an
// explicit path) and renders its latency tails, SLO attainment and
// goodput-vs-offered-load curves as tables. No -socket required.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"

	"convgpu/internal/admin"
	"convgpu/internal/asyncop"
	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/daemon"
	"convgpu/internal/load"
	"convgpu/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("convgpu-stats", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		socket  = flags.String("socket", "", "scheduler admin socket path, <basedir>/"+admin.SocketName+" (required)")
		timeout = flags.Duration("timeout", 5*time.Second, "deadline for the whole query")
		limit   = flags.Int("limit", 0, "max trace events or sessions per page (0 = server default)")
	)
	flags.Usage = func() {
		fmt.Fprintf(stderr,
			"usage: convgpu-stats -socket PATH {stats | trace [container] | dump | devices | sessions [after] | ops [id] | tenants | nodes | drain NODE | revive NODE}\n"+
				"       convgpu-stats load [BENCH_load.json]\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}
	query, arg := flags.Arg(0), flags.Arg(1)
	if query == "load" {
		if err := printLoad(stdout, arg); err != nil {
			fmt.Fprintf(stderr, "convgpu-stats: load: %v\n", err)
			return 1
		}
		return 0
	}
	if *socket == "" || query == "" {
		flags.Usage()
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	tr := &http.Transport{DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "unix", *socket)
	}}
	defer tr.CloseIdleConnections()
	c := &client{ctx: ctx, http: &http.Client{Transport: tr}}
	page := url.Values{}
	if *limit > 0 {
		page.Set("limit", strconv.Itoa(*limit))
	}

	var err error
	switch query {
	case "stats":
		err = c.printJSON(stdout, "/v1/stats")
	case "trace":
		err = c.printTrace(stdout, arg, page)
	case "dump":
		err = c.printJSON(stdout, "/v1/dump?"+page.Encode())
	case "devices":
		var d daemon.Dump
		if err = c.get("/v1/dump", &d); err == nil {
			printDevices(stdout, d)
		}
	case "sessions":
		page.Set("after", arg) // page cursor: last container ID seen
		err = c.printJSON(stdout, "/v1/sessions?"+page.Encode())
	case "ops":
		path := "/v1/operations"
		if arg != "" {
			path += "/" + url.PathEscape(arg)
		}
		err = c.printJSON(stdout, path)
	case "tenants":
		var tenants []core.TenantUsage
		if err = c.get("/v1/tenants", &tenants); err == nil {
			printTenants(stdout, tenants)
		}
	case "nodes":
		var nodes []core.NodeStatus
		if err = c.get("/v1/nodes", &nodes); err == nil {
			printNodes(stdout, nodes)
		}
	case "drain", "revive":
		node, aerr := strconv.Atoi(arg)
		if aerr != nil {
			fmt.Fprintf(stderr, "convgpu-stats: %s needs a node index, got %q\n", query, arg)
			return 2
		}
		if err = c.nodeVerb(node, query); err == nil {
			fmt.Fprintf(stdout, "node %d: %s acknowledged\n", node, query)
		}
	default:
		fmt.Fprintf(stderr, "convgpu-stats: unknown query %q\n", query)
		flags.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "convgpu-stats: %s: %v\n", query, err)
		return 1
	}
	return 0
}

// client speaks /v1 to the daemon's admin socket; ctx carries -timeout
// across every request of one query.
type client struct {
	ctx  context.Context
	http *http.Client
}

// do performs one request and returns the response body. A non-2xx
// answer comes back as the error envelope's "code: error (request_id)".
func (c *client) do(method, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(c.ctx, method, "http://convgpu"+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		var e admin.ErrorBody
		if json.Unmarshal(body, &e) != nil || e.Error == "" {
			return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
		}
		return nil, failure(e.Code, e.Error, e.RequestID)
	}
	return body, nil
}

// failure is the error an error envelope or a failed operation prints
// as: "code: error (request id)", without the code when there is none.
func failure(code, text, requestID string) error {
	if code != "" {
		text = code + ": " + text
	}
	return fmt.Errorf("%s (%s)", text, requestID)
}

// get fetches one document into v.
func (c *client) get(path string, v any) error {
	body, err := c.do(http.MethodGet, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// printJSON fetches one document and prints it indented.
func (c *client) printJSON(w io.Writer, path string) error {
	body, err := c.do(http.MethodGet, path)
	if err != nil {
		return err
	}
	return writeIndented(w, json.RawMessage(body))
}

// writeIndented prints v as JSON indented by two spaces.
func writeIndented(w io.Writer, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// nodeVerb submits drain or revive for one node and polls the operation
// it becomes until it has completed or failed.
func (c *client) nodeVerb(node int, verb string) error {
	body, err := c.do(http.MethodPost, fmt.Sprintf("/v1/nodes/%d/%s", node, verb))
	if err != nil {
		return err
	}
	var op asyncop.Operation
	if err := json.Unmarshal(body, &op); err != nil {
		return err
	}
	for op.Status != asyncop.StatusCompleted && op.Status != asyncop.StatusFailed {
		select {
		case <-c.ctx.Done():
			return fmt.Errorf("operation %s still %s: %w", op.ID, op.Status, c.ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
		if err := c.get("/v1/operations/"+url.PathEscape(op.ID), &op); err != nil {
			return err
		}
	}
	if op.Status == asyncop.StatusFailed {
		return failure(op.Code, op.Error, op.RequestID)
	}
	return nil
}

// printTrace retrieves the whole retained trace by following /v1/trace's
// page cursor and prints the merged dump.
func (c *client) printTrace(w io.Writer, container string, page url.Values) error {
	page.Set("container", container)
	var merged obs.TraceDump
	for {
		var p obs.TraceDump
		if err := c.get("/v1/trace?"+page.Encode(), &p); err != nil {
			return err
		}
		p.Events = append(merged.Events, p.Events...)
		merged = p
		if !p.More || p.NextAfter == 0 {
			break
		}
		page.Set("after", strconv.FormatUint(p.NextAfter, 10))
	}
	merged.NextAfter, merged.More = 0, false
	return writeIndented(w, merged)
}

// printLoad renders the load harness artifact's tails and curves as
// tables, reusing the report's own metrics.Table rendering.
func printLoad(w io.Writer, path string) error {
	if path == "" {
		path = "BENCH_load.json"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep, err := load.ParseReport(b)
	if err != nil {
		return err
	}
	return rep.Render(w)
}

// printNodes renders the cluster membership view as a table.
func printNodes(w io.Writer, nodes []core.NodeStatus) {
	fmt.Fprintf(w, "%-6s %-12s %-10s %-12s %-12s %-12s %s\n",
		"NODE", "NAME", "STATE", "CAPACITY", "FREE", "CONTAINERS", "FAILOVERS")
	for _, n := range nodes {
		fmt.Fprintf(w, "%-6d %-12s %-10s %-12v %-12v %-12d %d\n",
			n.Index, n.Name, n.State, n.Capacity, n.Free, n.Containers, n.Failovers)
	}
}

// printTenants renders the per-tenant usage rollup as a table. Weight 0
// reads as the fair-share default (1); quota/guarantee 0 mean none.
func printTenants(w io.Writer, tenants []core.TenantUsage) {
	if len(tenants) == 0 {
		fmt.Fprintln(w, "no named tenants registered")
		return
	}
	fmt.Fprintf(w, "%-16s %-7s %-5s %-10s %-10s %-11s %-10s %-10s %-10s %s\n",
		"TENANT", "WEIGHT", "PRIO", "QUOTA", "GUARANTEE", "CONTAINERS", "SUSPENDED", "GRANT", "USED", "PENDING")
	for _, t := range tenants {
		weight := t.Weight
		if weight <= 0 {
			weight = 1
		}
		quota, guarantee := "-", "-"
		if t.Quota > 0 {
			quota = t.Quota.String()
		}
		if t.Guarantee > 0 {
			guarantee = t.Guarantee.String()
		}
		fmt.Fprintf(w, "%-16s %-7d %-5d %-10s %-10s %-11d %-10d %-10v %-10v %d\n",
			t.Name, weight, t.Priority, quota, guarantee,
			t.Containers, t.Suspended, t.Grant, t.Used, t.Pending)
	}
}

// printDevices renders the dump's per-device breakdown as a table.
func printDevices(w io.Writer, d daemon.Dump) {
	fmt.Fprintf(w, "algorithm: %s, devices: %d\n", d.Algorithm, len(d.Devices))
	fmt.Fprintf(w, "%-8s %-12s %-12s %s\n", "DEVICE", "CAPACITY", "FREE", "CONTAINERS")
	for _, dev := range d.Devices {
		fmt.Fprintf(w, "%-8d %-12v %-12v %d\n",
			dev.Index, bytesize.Size(dev.Capacity), bytesize.Size(dev.PoolFree), dev.Containers)
	}
	if len(d.Containers) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-20s %-8s %-10s %-10s %-10s %s\n",
		"CONTAINER", "DEVICE", "LIMIT", "GRANT", "USED", "STATE")
	for _, c := range d.Containers {
		state := "running"
		if c.Suspended {
			state = "suspended"
		}
		fmt.Fprintf(w, "%-20s %-8d %-10v %-10v %-10v %s\n",
			c.ID, c.Device, bytesize.Size(c.Limit), bytesize.Size(c.Grant), bytesize.Size(c.Used), state)
	}
}
