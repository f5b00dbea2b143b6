package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"simcloud/internal/stats"
)

// span is one call the benchmark made into a layer: its name, interval
// (offsets from the tracer's start), the span that caused it, and the
// request ID shared by every span of one operation. Costs holds the
// stats.Costs the call returned, when it returns any; Share marks a span
// laid out from its parent's Costs.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for an operation's root span
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Costs  *stats.Costs  `json:"costs,omitempty"`
	Share  bool          `json:"share,omitempty"`
	// Overlapping marks a call whose Costs shares overlap in time by
	// design (a streamed ingest prepares chunks while earlier ones are in
	// flight), so none are laid out and its operation is left out of
	// trace.unattributed_pct.
	Overlapping bool `json:"overlapping,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	req   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op starts the root span of a new operation and returns its handle.
func (t *tracer) op(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	t.req++
	req := t.req
	t.mu.Unlock()
	return t.begin(spanRef{t: t, id: -1, req: req}, name)
}

// begin starts a child span of parent.
func (t *tracer) begin(parent spanRef, name string) spanRef {
	if t == nil || parent.t == nil {
		return spanRef{}
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Req: parent.req, Name: name, Start: now, End: -1})
	return spanRef{t: t, id: id, req: parent.req}
}

// spanRef is a handle on an open span; the zero value is a no-op.
type spanRef struct {
	t   *tracer
	id  int
	req int64
}

func (s spanRef) child(name string) spanRef { return s.t.begin(s, name) }

// end closes the span. A non-nil c is attached, and its communication,
// server, encryption, decryption and distance shares become child spans
// laid end to end from the span's start, at their full length, so the
// call's self time is what no share covers and reconcile fails when the
// shares sum past the call.
func (s spanRef) end(c *stats.Costs) { s.close(c, false) }

// endOverlapping closes a span whose Costs shares overlap in time; c is
// attached without shares.
func (s spanRef) endOverlapping(c *stats.Costs) { s.close(c, true) }

func (s spanRef) close(c *stats.Costs, overlapping bool) {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0)
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	sp := &s.t.spans[s.id]
	sp.End = now
	if c == nil {
		return
	}
	cc := *c
	sp.Costs = &cc
	sp.Overlapping = overlapping
	if overlapping {
		return
	}
	at := sp.Start
	req, parent := sp.Req, sp.ID
	for _, part := range []struct {
		name string
		d    time.Duration
	}{
		{"wire.comm", c.CommTime},
		{"server", c.ServerTime},
		{"secret.encrypt", c.EncryptTime},
		{"secret.decrypt", c.DecryptTime},
		{"metric.dist", c.DistCompTime},
	} {
		if part.d <= 0 {
			continue
		}
		s.t.spans = append(s.t.spans, span{
			ID: len(s.t.spans), Parent: parent, Req: req, Name: part.name, Start: at, End: at + part.d, Share: true,
		})
		at += part.d
	}
}

// reconcile checks every traced operation and measures its attribution.
// The children of a span run one after another (the benchmark never opens
// two at once under one parent), so a span's self time is its duration
// minus its children's, and the layer self times of an operation sum to
// at most its end-to-end time exactly when no span's children sum past
// it. reconcile returns an error for the first span whose children do;
// otherwise it returns the mean share of an operation not covered by a Costs share,
// in percent, over the operations without overlapping Costs.
func (t *tracer) reconcile() (unattributedPct float64, ops int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	var roots []int
	for i, sp := range t.spans {
		if sp.End < 0 {
			continue
		}
		if sp.Parent < 0 {
			roots = append(roots, i)
		} else {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	dur := func(i int) time.Duration { return t.spans[i].End - t.spans[i].Start }
	for i, sp := range t.spans {
		var kids time.Duration
		for _, c := range children[i] {
			kids += dur(c)
		}
		if kids > dur(i) {
			return 0, 0, fmt.Errorf("trace: the layers under %s of request %d sum to %v, past its %v", sp.Name, sp.Req, kids, dur(i))
		}
	}
	var sumPct float64
	for _, r := range roots {
		total := dur(r)
		if total <= 0 {
			continue
		}
		var covered time.Duration
		overlapping := false
		stack := append([]int(nil), children[r]...)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if t.spans[i].Share {
				covered += dur(i)
			}
			overlapping = overlapping || t.spans[i].Overlapping
			stack = append(stack, children[i]...)
		}
		if overlapping {
			continue
		}
		sumPct += 100 * float64(total-covered) / float64(total)
		ops++
	}
	if ops == 0 {
		return 0, 0, nil
	}
	return sumPct / float64(ops), ops, nil
}

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
