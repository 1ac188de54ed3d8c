package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hadas"
	"repro/internal/persist"
	"repro/internal/transport"
)

// The traced run observes the program only through its public seams: a
// timing transport.Conn handed out by Config.Dial, a timing
// persist.Backend passed as Config.Store, and the benchmark's own behavior
// bodies. Spans stay in memory until the run ends.

type spanKind uint8

const (
	kindOp   spanKind = iota // one client op, timed by the client loop
	kindCall                 // one transport call, timed by timedConn
	kindBody                 // one target method body, timed by the body
	kindPut                  // one Put or PutAll, timed by timedStore
)

var kindNames = [...]string{"op", "call", "body", "put"}

// span is one timed interval. Times are nanoseconds since the tracer's
// base, on the monotonic clock every goroutine of the process shares.
type span struct {
	kind       spanKind
	site       int8  // call: index of the dialing site (alpha 0, beta 1)
	failed     bool  // op or call returned an error
	hasKey     bool  // key is meaningful
	key        int64 // op id, or client index for agents
	start, end int64
	name       string // call: verb; put: store slot
	n, m       int    // call: request and response bytes; put: bytes and slots
	off        int    // call: offset of the request payload in the arena
}

func (s span) dur() int64 { return s.end - s.start }

// wireSamples caps the payloads kept for re-timing the wire codec.
const wireSamples = 2048

type tracer struct {
	base time.Time
	on   atomic.Bool

	mu    sync.Mutex
	spans []span
	arena []byte   // request payloads of call spans
	resps [][]byte // the first wireSamples response payloads
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

// active reports whether spans are being recorded; nil is never active.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) call(site int8, verb string, start, end int64, req, resp []byte, err error) {
	t.mu.Lock()
	off := len(t.arena)
	t.arena = append(t.arena, req...)
	if len(t.resps) < wireSamples && err == nil {
		t.resps = append(t.resps, append([]byte(nil), resp...))
	}
	t.spans = append(t.spans, span{kind: kindCall, site: site, failed: err != nil,
		start: start, end: end, name: verb, n: len(req), m: len(resp), off: off})
	t.mu.Unlock()
}

// request returns the payload a call span sent.
func (t *tracer) request(s span) []byte { return t.arena[s.off : s.off+s.n] }

// timedConn times every call a site makes to its peer.
type timedConn struct {
	inner transport.Conn
	tr    *tracer
	site  int8
}

// timedConn must keep the pipelined fan-out path of the connection it wraps.
var _ transport.MultiCaller = (*timedConn)(nil)

func (c *timedConn) Call(ctx context.Context, verb string, payload []byte) ([]byte, error) {
	if !c.tr.active() {
		return c.inner.Call(ctx, verb, payload)
	}
	start := c.tr.now()
	resp, err := c.inner.Call(ctx, verb, payload)
	c.tr.call(c.site, verb, start, c.tr.now(), payload, resp, err)
	return resp, err
}

// CallMulti forwards a batch in one round trip when the inner connection
// pipelines; each request of the batch becomes one call span.
func (c *timedConn) CallMulti(ctx context.Context, reqs []transport.MultiRequest) []transport.MultiResult {
	if !c.tr.active() {
		return transport.DoMulti(ctx, c.inner, reqs)
	}
	start := c.tr.now()
	res := transport.DoMulti(ctx, c.inner, reqs)
	end := c.tr.now()
	for i, r := range reqs {
		c.tr.call(c.site, r.Verb, start, end, r.Payload, res[i].Payload, res[i].Err)
	}
	return res
}

func (c *timedConn) Ping(ctx context.Context) error { return c.inner.Ping(ctx) }
func (c *timedConn) Close() error                   { return c.inner.Close() }

// timedDial is a Config.Dial that wraps each TCP connection in a timedConn.
func timedDial(tr *tracer, site int8) hadas.DialFunc {
	return func(addr string) (transport.Conn, error) {
		c, err := transport.DialTCP(addr)
		if err != nil {
			return nil, err
		}
		return &timedConn{inner: c, tr: tr, site: site}, nil
	}
}

// timedStore times the writes a site makes to its store. Reads, Delete,
// Sync and Close go straight to the wrapped backend.
type timedStore struct {
	persist.Backend
	tr *tracer
}

func (s *timedStore) Put(slot string, data []byte) error {
	if !s.tr.active() {
		return s.Backend.Put(slot, data)
	}
	start := s.tr.now()
	err := s.Backend.Put(slot, data)
	s.tr.add(span{kind: kindPut, failed: err != nil, start: start, end: s.tr.now(),
		name: slot, n: len(data), m: 1})
	return err
}

func (s *timedStore) PutAll(batch map[string][]byte) error {
	if !s.tr.active() {
		return s.Backend.PutAll(batch)
	}
	bytes := 0
	for _, d := range batch {
		bytes += len(d)
	}
	start := s.tr.now()
	err := s.Backend.PutAll(batch)
	s.tr.add(span{kind: kindPut, failed: err != nil, start: start, end: s.tr.now(),
		n: bytes, m: len(batch)})
	return err
}

// opParts is one op's duration split into the self times of its spans:
// the op, the outbound call it made, and the spans nested in that call —
// the target body, or for an agent its arrival body and the return hop.
// The parts of a well-formed op sum to its duration exactly.
type opParts struct {
	op         span
	callerSelf int64 // op minus its outbound call
	remoteSelf int64 // outbound call minus the spans nested in it
	requestLeg int64 // call start → first nested span
	replyLeg   int64 // last nested span → call return
	apply      int64 // target bodies
	returnHop  int64 // nested return call
}

func (p opParts) sum() int64 {
	return p.callerSelf + p.remoteSelf + p.apply + p.returnHop
}

// decomposition is every traced op split into parts, plus the spans that
// could not be tied to an op.
type decomposition struct {
	ops        []opParts
	mismatched int // ops whose spans are missing, doubled, or not nested
	orphans    int // calls and bodies inside no op
}

// decompose ties calls and bodies to ops by key and time containment.
// Store writes (the agents' journal) are no op's part. keyOf extracts the
// op key from a call's request payload.
func decompose(tr *tracer, keyOf func(verb string, payload []byte) (int64, bool)) decomposition {
	var d decomposition
	type owner struct {
		outer    []int // calls alpha made
		children []int // bodies and calls back from beta
	}
	byKey := map[int64][]int{} // op span indexes, sorted by start
	for i, s := range tr.spans {
		if s.kind == kindOp {
			byKey[s.key] = append(byKey[s.key], i)
		}
	}
	// within returns the span of idx (sorted by start) containing s, or -1.
	within := func(idx []int, s span) int {
		j := sort.Search(len(idx), func(j int) bool { return tr.spans[idx[j]].start > s.start }) - 1
		if j < 0 || tr.spans[idx[j]].end < s.end {
			return -1
		}
		return idx[j]
	}
	for _, idx := range byKey {
		sortByStart(tr, idx)
	}
	owners := map[int]*owner{}
	own := func(op int) *owner {
		if owners[op] == nil {
			owners[op] = &owner{}
		}
		return owners[op]
	}
	for i, s := range tr.spans {
		switch s.kind {
		case kindCall:
			k, ok := keyOf(s.name, tr.request(s))
			op := -1
			if ok {
				op = within(byKey[k], s)
			}
			switch {
			case op < 0:
				d.orphans++
			case s.site == 0:
				own(op).outer = append(own(op).outer, i)
			default:
				own(op).children = append(own(op).children, i)
			}
		case kindBody:
			if op := within(byKey[s.key], s); op >= 0 {
				own(op).children = append(own(op).children, i)
			} else {
				d.orphans++
			}
		}
	}

	for i, s := range tr.spans {
		if s.kind != kindOp {
			continue
		}
		if o := owners[i]; o != nil && len(o.outer) == 1 {
			if p, ok := split(tr, s, tr.spans[o.outer[0]], o.children); ok {
				d.ops = append(d.ops, p)
				continue
			}
		}
		d.mismatched++
	}
	return d
}

func sortByStart(tr *tracer, idx []int) {
	sort.Slice(idx, func(a, b int) bool { return tr.spans[idx[a]].start < tr.spans[idx[b]].start })
}

// split computes an op's parts from its outbound call and the spans nested
// in that call. It fails unless there is at least one nested span and the
// nested spans lie inside the call, one after another.
func split(tr *tracer, op, call span, children []int) (opParts, bool) {
	if len(children) == 0 {
		return opParts{}, false
	}
	sortByStart(tr, children)
	p := opParts{op: op, callerSelf: op.dur() - call.dur(), remoteSelf: call.dur()}
	at := call.start
	for _, c := range children {
		ch := tr.spans[c]
		if ch.start < at {
			return opParts{}, false
		}
		if c == children[0] {
			p.requestLeg = ch.start - call.start
		}
		p.remoteSelf -= ch.dur()
		if ch.kind == kindCall {
			p.returnHop += ch.dur()
		} else {
			p.apply += ch.dur()
		}
		at = ch.end
	}
	p.replyLeg = call.end - at
	ok := op.start <= call.start && p.replyLeg >= 0 && p.sum() == op.dur()
	return p, ok
}
