package daemon

import (
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"

	"convgpu/internal/protocol"
)

// cycler drives one container's socket with the wrapped cycle's frames,
// written as the wrapper's client writes them: this cycle's alloc with
// the last one's confirm and free, one-way, in front of it — one write,
// so one read at the daemon.
type cycler struct {
	conn net.Conn
	pid  int
	seq  uint64
	last uint64 // the address the last accepted alloc was confirmed at
	buf  []byte
}

func dialCycler(resp *protocol.Message, pid int) (*cycler, error) {
	conn, err := net.Dial("unix", filepath.Join(resp.SocketDir, protocol.SocketFileName))
	if err != nil {
		return nil, err
	}
	return &cycler{conn: conn, pid: pid}, nil
}

func (c *cycler) frame(m *protocol.Message) {
	c.seq++
	m.Seq, m.PID = c.seq, c.pid
	out, ok := protocol.AppendEncodeBinary(c.buf, m)
	if !ok {
		panic("no binary form for " + string(m.Type))
	}
	c.buf = out
}

// cycle writes [confirm, free] of the previous cycle and this cycle's
// alloc in one write and reads the alloc's reply.
func (c *cycler) cycle() error {
	c.buf = c.buf[:0]
	if c.last != 0 {
		c.frame(&protocol.Message{Type: protocol.TypeConfirm, Size: 4096, Addr: c.last, NoReply: true})
		c.frame(&protocol.Message{Type: protocol.TypeFree, Addr: c.last, NoReply: true})
	}
	c.frame(&protocol.Message{Type: protocol.TypeAlloc, Size: 4096})
	if _, err := c.conn.Write(c.buf); err != nil {
		return err
	}
	resp, err := c.reply()
	if err != nil {
		return err
	}
	if !resp.OK || resp.Decision != protocol.DecisionAccept || resp.Seq != c.seq {
		return fmt.Errorf("alloc #%d: %+v", c.seq, resp)
	}
	c.last = c.seq<<12 | uint64(c.pid) // a fresh address every cycle
	return nil
}

func (c *cycler) reply() (*protocol.Message, error) {
	hdr := make([]byte, protocol.BinaryHeaderSize)
	if _, err := io.ReadFull(c.conn, hdr); err != nil {
		return nil, err
	}
	op, n, seq, err := protocol.ParseBinaryHeader(hdr)
	if err != nil {
		return nil, err
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(c.conn, body); err != nil {
		return nil, err
	}
	m := &protocol.Message{}
	return m, protocol.DecodeBinaryInto(m, op, seq, body)
}

// TestCycleEventsTakeTheReadsStamp: over 1,000 wrapped cycles on each of
// two containers at once, the free and the accept that one read brought
// carry one At — the read's stamp — and every container's CSeq stays
// consecutive: the counter the core's slot caches is the one an attach,
// recorded by name after a redial, counts on.
func TestCycleEventsTakeTheReadsStamp(t *testing.T) {
	const cycles = 1000
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	regs := map[string]*protocol.Message{"a": register(t, ctl, "a", mib(400)), "b": register(t, ctl, "b", mib(400))}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i, id := range []string{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- cycleAndRedial(regs[id], i+1, cycles)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, id := range []string{"a", "b"} {
		evs := d.Obs().Tracer().Events(id)
		if len(evs) < cycles {
			t.Fatalf("%s: %d events retained", id, len(evs))
		}
		var shared, attaches int
		for i, e := range evs {
			if i > 0 && e.CSeq != evs[i-1].CSeq+1 {
				t.Fatalf("%s: cseq %d after %d (%s after %s)", id, e.CSeq, evs[i-1].CSeq, e.Kind, evs[i-1].Kind)
			}
			if e.Kind == "attach" {
				attaches++
			}
			if e.Kind != "free" {
				continue
			}
			// A free's read carried the next alloc.
			if i+1 == len(evs) || evs[i+1].Kind != "accept" {
				t.Fatalf("%s: free #%d not followed by its read's accept", id, e.CSeq)
			}
			if evs[i+1].At != e.At {
				t.Errorf("%s: free #%d at %d, the accept of its read at %d", id, e.CSeq, e.At, evs[i+1].At)
			}
			shared++
		}
		if attaches != 1 || shared < cycles/2 {
			t.Errorf("%s: %d attaches and %d free/accept pairs in %d events", id, attaches, shared, len(evs))
		}
	}
}

// cycleAndRedial runs half the cycles on one connection and half on a
// second, which attaches first and confirms and frees the first one's
// last allocation in its first write.
func cycleAndRedial(reg *protocol.Message, pid, cycles int) error {
	c, err := dialCycler(reg, pid)
	if err != nil {
		return err
	}
	for j := 0; j < cycles/2; j++ {
		if err := c.cycle(); err != nil {
			return err
		}
	}
	c.conn.Close()
	next, err := dialCycler(reg, pid)
	if err != nil {
		return err
	}
	defer next.conn.Close()
	next.last, next.seq = c.last, c.seq
	next.frame(&protocol.Message{Type: protocol.TypeAttach})
	if _, err := next.conn.Write(next.buf); err != nil {
		return err
	}
	if resp, err := next.reply(); err != nil || !resp.OK {
		return fmt.Errorf("attach: %+v %v", resp, err)
	}
	for j := cycles / 2; j < cycles; j++ {
		if err := next.cycle(); err != nil {
			return err
		}
	}
	return nil
}
