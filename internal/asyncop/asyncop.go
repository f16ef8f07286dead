// Package asyncop runs mutating admin verbs as asynchronous operations:
// a Submit enqueues the work and immediately returns an operation ID;
// the caller polls Get until the operation reports completed or failed.
// This is the heketi async-HTTP shape — the admin plane never blocks an
// HTTP request on a drain or a compaction — without the HTTP parts,
// which live in internal/admin.
//
// A fixed worker pool drains the queue so a burst of verbs cannot spawn
// a goroutine per request, and a retention ring keeps the most recent
// finished operations visible to pollers after completion.
package asyncop

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"convgpu/internal/errs"
)

// Status is an operation's lifecycle stage.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusCompleted Status = "completed"
	StatusFailed    Status = "failed"
)

// Operation is the pollable view of one submitted verb. Result is only
// set once Status is StatusCompleted; Error only for StatusFailed, with
// Code when the error has a class in errs's table.
type Operation struct {
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	Status    Status `json:"status"`
	RequestID string `json:"request_id,omitempty"`
	// Detail is the verb's target (a node number, a wal directory) for
	// operator listings.
	Detail     string `json:"detail,omitempty"`
	SubmitTime int64  `json:"submitted_unix_nano"`
	DoneTime   int64  `json:"done_unix_nano,omitempty"`
	Result     any    `json:"result,omitempty"`
	Error      string `json:"error,omitempty"`
	Code       string `json:"code,omitempty"`
}

// defaultRetain bounds how many finished operations stay pollable; the
// oldest finished are evicted first. Live operations are never evicted.
const defaultRetain = 256

// Manager owns the queue, the workers, and the operation table.
type Manager struct {
	now func() time.Time

	mu      sync.Mutex
	ops     map[string]*Operation
	order   []string // finished IDs, oldest first, for retention eviction
	nextID  uint64
	queue   chan *job
	wg      sync.WaitGroup // workers
	senders sync.WaitGroup // Submits between the closed check and the send
	closed  bool
	retain  int
}

type job struct {
	id string
	fn func() (any, error)
}

// New starts a manager with the given worker count (min 1). The clock
// is injectable for tests; nil means time.Now.
func New(workers int, now func() time.Time) *Manager {
	if workers < 1 {
		workers = 1
	}
	if now == nil {
		now = time.Now
	}
	m := &Manager{
		now:    now,
		ops:    make(map[string]*Operation),
		queue:  make(chan *job, 64),
		retain: defaultRetain,
	}
	m.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go m.worker()
	}
	return m
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.mu.Lock()
		op := m.ops[j.id]
		op.Status = StatusRunning
		m.mu.Unlock()
		res, err := j.fn()
		m.mu.Lock()
		op.DoneTime = m.now().UnixNano()
		if err != nil {
			op.Status = StatusFailed
			op.Error, op.Code = err.Error(), errs.Code(err)
		} else {
			op.Status = StatusCompleted
			op.Result = res
		}
		m.order = append(m.order, j.id)
		for len(m.order) > m.retain {
			delete(m.ops, m.order[0])
			m.order = m.order[1:]
		}
		m.mu.Unlock()
	}
}

// Submit enqueues fn as an operation and returns its ID immediately.
// kind names the verb ("drain", "compact"), requestID ties the op back
// to the HTTP request that created it, detail is the target.
func (m *Manager) Submit(kind, requestID, detail string, fn func() (any, error)) (string, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", fmt.Errorf("asyncop: manager closed")
	}
	m.nextID++
	id := fmt.Sprintf("op-%d", m.nextID)
	m.ops[id] = &Operation{
		ID:         id,
		Kind:       kind,
		Status:     StatusQueued,
		RequestID:  requestID,
		Detail:     detail,
		SubmitTime: m.now().UnixNano(),
	}
	// The senders group keeps Close from closing the channel while this
	// send is in flight; the send itself happens outside the lock so a
	// full queue cannot wedge the workers (they need the lock between
	// receives).
	m.senders.Add(1)
	m.mu.Unlock()
	m.queue <- &job{id: id, fn: fn}
	m.senders.Done()
	return id, nil
}

// Get returns a copy of one operation by ID.
func (m *Manager) Get(id string) (Operation, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	op, ok := m.ops[id]
	if !ok {
		return Operation{}, false
	}
	return *op, true
}

// List returns copies of all retained operations, newest first.
func (m *Manager) List() []Operation {
	m.mu.Lock()
	out := make([]Operation, 0, len(m.ops))
	for _, op := range m.ops {
		out = append(out, *op)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].SubmitTime != out[j].SubmitTime {
			return out[i].SubmitTime > out[j].SubmitTime
		}
		return out[i].ID > out[j].ID
	})
	return out
}

// Close drains the queue and stops the workers. Submitted operations
// finish; new submissions fail.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.senders.Wait()
	close(m.queue)
	m.wg.Wait()
}
