package core

import (
	"strconv"
	"strings"
	"sync"
	"time"
)

// Deadlock detection over Serialized admissions, in the edge-chasing
// style of Chandy–Misra–Haas. The in-process waits-for graph is intrusive
// (serialize.go): Object.holder and callChain.wait are its edges. A cycle
// that closes through a remote site is invisible to one process, so every
// call chain gets a globally unique identity ("site:seq"), the identity
// travels on every wire invoke frame, and a per-site Detector tracks two
// registries the in-process edges cannot express:
//
//   - chains:   every chain identity known at this site (minted locally,
//               or adopted because a remote invocation carried it in),
//   - outbound: chains currently inside a remote call to a peer — the
//               *remote edge* of the waits-for graph.
//
// When a chain blocks, the detector chases the wait→holder edges locally;
// if the walk ends at a chain that is off inside a remote call, the probe
// (initiator, target, path) is forwarded to that peer, which continues the
// chase through its own graph. A walk arriving back at a chain whose
// identity equals the initiator proves a cycle — with zero hops when the
// cycle is local, so local and remote cycles share one walk and one victim
// rule: the lowest chain identity on the cycle is aborted with ErrDeadlock
// naming the full cycle, long before any AdmissionTimeout backstop.
// Objects hosted by no site use a process-default detector, which records
// no remote edges and so never forwards.
//
// Hygiene: probes carry a TTL (site hops) and a path cap, duplicate
// (initiator, target) forwards are suppressed within a short window, and a
// probe naming a chain this site no longer knows (completed or aborted) is
// simply dropped — a stale probe can never abort a live chain, because an
// abort only fires if the named victim is *currently* blocked here on the
// exact object the cycle names.

const (
	// DefaultProbeTTL caps how many sites one probe may traverse.
	DefaultProbeTTL = 32
	// maxProbePath caps the steps a probe accumulates; a path this long is
	// either a huge genuine cycle or a forwarding loop — drop it and let
	// the admission timeout backstop the (pathological) former.
	maxProbePath = 64
	// reprobeInterval is the cadence at which a still-blocked chain
	// re-chases, covering probes lost to partitions or races.
	reprobeInterval = 100 * time.Millisecond
	// probeDedupWindow suppresses identical (initiator, target) forwards
	// arriving within this window, bounding probe storms under re-probing.
	probeDedupWindow = 50 * time.Millisecond
	// maxProbeSeen caps the dedup table, whose keys arrive from peers. A
	// full table sheds expired entries and then arbitrary ones down to
	// half the cap, so pruning costs O(1) per probe amortised; a shed
	// entry only lets one duplicate probe through.
	maxProbeSeen = 1024
)

// ProbeStep is one wait→holder edge of the chased path, in wire-portable
// (string) form.
type ProbeStep struct {
	Chain  string // blocked chain's identity
	Site   string // site where it blocks
	Object string // object whose admission it waits for
	Holder string // chain currently holding that admission
}

// Probe is one edge-chasing message: "initiator is (transitively) blocked
// behind target — continue the chase from target at your site".
type Probe struct {
	Initiator string
	Target    string
	TTL       int
	Path      []ProbeStep
}

// Verdict is a probe's reply. A zero Verdict means the chase dead-ended
// (no cycle provable through this site). Every site on the reply path
// attempts the abort, so the verdict reaches the victim wherever it blocks.
type Verdict struct {
	Cycle     string // human-readable description of the full cycle
	Victim    string // chain identity chosen to abort (lowest on the cycle)
	VictimObj string // object the victim waits on — abort precondition
}

// ProbeForwarder sends a probe to a named peer site and returns its
// verdict. Implemented by hadas.Site over the protocol's probe verb.
type ProbeForwarder interface {
	ForwardProbe(peer string, p Probe) (Verdict, error)
}

// DetectorHost is implemented by resolvers (sites) that run a Detector;
// admit discovers the detector through the blocked object's resolver.
type DetectorHost interface {
	DeadlockDetector() *Detector
}

// Detector is one site's share of the distributed detection state.
type Detector struct {
	site string
	fwd  ProbeForwarder

	mu       sync.Mutex
	chains   map[string]*chainEntry
	outbound map[*callChain]*outboundEdge
	seen     map[probeKey]time.Time
}

// chainEntry refcounts a chain identity's liveness at this site: one ref
// for a locally minted chain until the admission that minted it is
// released, plus one per active adoption by an incoming remote invocation. At zero
// the entry is dropped, and any later probe naming the identity dead-ends.
type chainEntry struct {
	ch   *callChain
	refs int
}

// outboundEdge marks a chain as inside n remote calls to peer — the
// remote continuation of the waits-for graph.
type outboundEdge struct {
	peer string
	n    int
}

// blockedWait is a blocked chain's wait edge (callChain.wait): the object
// whose admission it awaits, and the abort the probe machinery may fire.
type blockedWait struct {
	obj   *Object
	abort chan string // cap 1: receives the cycle description
	done  chan struct{}
}

type probeKey struct {
	initiator string
	target    string
}

// NewDetector creates the per-site detector. fwd carries probes to peers;
// a detector without one never forwards.
func NewDetector(site string, fwd ProbeForwarder) *Detector {
	return &Detector{
		site:     site,
		fwd:      fwd,
		chains:   make(map[string]*chainEntry),
		outbound: make(map[*callChain]*outboundEdge),
		seen:     make(map[probeKey]time.Time),
	}
}

// defaultDetector chases waits on objects hosted by no site. It has no
// peers, so its chases are zero-hop; its empty site name gives the
// identities it mints the empty origin (":seq").
var defaultDetector = NewDetector("", nil)

// DefaultDetector returns the process-wide detector for objects hosted by
// no site.
func DefaultDetector() *Detector { return defaultDetector }

// Site returns the detector's site name (the origin stamped on minted
// chain identities).
func (d *Detector) Site() string { return d.site }

// ChainCount reports how many chain identities the site currently tracks
// — operational introspection, and the hook tests use to assert that
// completed chains are forgotten (so stale probes dead-end).
func (d *Detector) ChainCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.chains)
}

// ensureGID mints the chain's global identity on first need. Identity is
// minted lazily — at first export or first block — so the warm dispatch
// path never pays for it.
func (c *callChain) ensureGID(site string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gid == "" {
		c.gid = site + ":" + strconv.FormatUint(c.id, 10)
	}
	return c.gid
}

// GID returns the chain's global identity, or "" if never minted.
func (c *callChain) GID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gid
}

// gidOrLabel prefers the global identity for diagnostics that travel.
func (c *callChain) gidOrLabel() string {
	if gid := c.GID(); gid != "" {
		return gid
	}
	return c.label()
}

// addReg records that d holds a liveness ref on c (released by
// completeLocal when the chain's top-level invocation returns).
func (c *callChain) addReg(d *Detector) {
	c.mu.Lock()
	c.regs = append(c.regs, d)
	c.mu.Unlock()
}

// completeLocal releases the chain's liveness ref in every detector that
// registered it: once the admission that minted the chain is released, or
// once the last adoption of a remote chain's incarnation ends.
func (c *callChain) completeLocal() {
	c.mu.Lock()
	regs := c.regs
	c.regs = nil
	c.mu.Unlock()
	for _, d := range regs {
		d.release(c)
	}
}

// register ensures ch is tracked at this site, holding a liveness ref the
// chain releases at completion. Idempotent per (detector, chain).
func (d *Detector) register(ch *callChain) string {
	gid := ch.ensureGID(d.site)
	d.mu.Lock()
	e := d.chains[gid]
	fresh := e == nil
	if fresh {
		e = &chainEntry{ch: ch, refs: 1}
		d.chains[gid] = e
	}
	d.mu.Unlock()
	if fresh {
		ch.addReg(d)
	}
	return gid
}

// AdoptedChain is a remote chain identity bound to this site for the
// duration of one incoming invocation; Object.InvokeWithChain runs under it
// so re-entry and blocking at this site are attributed to the right chain.
type AdoptedChain struct {
	ch *callChain
}

// Adopt binds an incoming chain identity to this site: a chain minted here
// (and still live) is re-entered directly, so a call cycling back home runs
// inside the admissions it already holds; a foreign identity gets a local
// incarnation, created once and shared by every concurrent arrival of the
// same chain. The returned release drops the adoption ref; at zero refs
// (and local completion, if minted here) the identity is forgotten and
// stale probes naming it dead-end.
func (d *Detector) Adopt(gid string) (*AdoptedChain, func()) {
	if gid == "" {
		return nil, func() {}
	}
	d.mu.Lock()
	e := d.chains[gid]
	if e == nil {
		_, seq := parseGID(gid)
		e = &chainEntry{ch: &callChain{id: seq, gid: gid, entry: "remote"}}
		d.chains[gid] = e
	}
	e.refs++
	ch := e.ch
	d.mu.Unlock()
	return &AdoptedChain{ch: ch}, func() { d.release(ch) }
}

// release drops one liveness ref (see chainEntry). The entry's last ref
// ends the chain here, and with it any registrations it made elsewhere —
// an adopted incarnation that blocked on a site-less object registered
// with the default detector.
func (d *Detector) release(ch *callChain) {
	gid := ch.GID()
	ended := false
	d.mu.Lock()
	if e := d.chains[gid]; e != nil && e.ch == ch {
		e.refs--
		if e.refs <= 0 {
			delete(d.chains, gid)
			delete(d.outbound, ch)
			ended = true
		}
	}
	d.mu.Unlock()
	if ended {
		ch.completeLocal()
	}
}

// parseGID splits "origin:seq"; a malformed identity orders as
// (whole-string, 0), keeping victim selection total and deterministic.
func parseGID(gid string) (origin string, seq uint64) {
	i := strings.LastIndexByte(gid, ':')
	if i < 0 {
		return gid, 0
	}
	n, err := strconv.ParseUint(gid[i+1:], 10, 64)
	if err != nil {
		return gid, 0
	}
	return gid[:i], n
}

// gidLess is the deterministic victim order: origin site first
// (lexicographic), then mint sequence. Every site computes the same victim
// for the same cycle, so exactly one chain aborts.
func gidLess(a, b string) bool {
	ao, as := parseGID(a)
	bo, bs := parseGID(b)
	if ao != bo {
		return ao < bo
	}
	return as < bs
}

// BeginRemoteCall publishes the remote edge for a chain about to enter a
// call to peer, returning the chain identity to stamp on the wire frame.
// The returned done withdraws the edge when the call completes. A chain
// that holds no identity-worthy state (inv.chain nil — the warm local
// path) stays unregistered and ships no identity.
func (inv *Invocation) BeginRemoteCall(d *Detector, peer string) (string, func()) {
	if inv == nil || inv.chain == nil || d == nil {
		return "", func() {}
	}
	ch := inv.chain
	gid := d.register(ch)
	d.mu.Lock()
	oe := d.outbound[ch]
	if oe == nil {
		oe = &outboundEdge{}
		d.outbound[ch] = oe
	}
	oe.peer = peer
	oe.n++
	d.mu.Unlock()
	return gid, func() {
		d.mu.Lock()
		if cur := d.outbound[ch]; cur == oe {
			oe.n--
			if oe.n <= 0 {
				delete(d.outbound, ch)
			}
		}
		d.mu.Unlock()
	}
}

// detector finds the deadlock detector of the object's site, or the
// process default for an object hosted by no site.
func (o *Object) detector() *Detector {
	o.mu.Lock()
	r := o.resolver
	o.mu.Unlock()
	if h, ok := r.(DetectorHost); ok {
		return h.DeadlockDetector()
	}
	return defaultDetector
}

// blockBegin publishes ch's wait edge on o's admission and starts the
// edge chase (immediately, then at reprobeInterval while still blocked).
// It returns the abort channel admit selects on, and the end function that
// withdraws the edge once the wait resolves either way.
func (d *Detector) blockBegin(ch *callChain, o *Object) (<-chan string, func()) {
	d.register(ch)
	bw := &blockedWait{
		obj:   o,
		abort: make(chan string, 1),
		done:  make(chan struct{}),
	}
	graphMu.Lock()
	ch.wait = bw
	graphMu.Unlock()
	go d.reprobe(ch, bw)
	var once sync.Once
	return bw.abort, func() {
		once.Do(func() {
			graphMu.Lock()
			if ch.wait == bw {
				ch.wait = nil
			}
			graphMu.Unlock()
			close(bw.done)
		})
	}
}

// reprobe chases on block and keeps re-chasing while the wait lasts —
// the retry that makes detection robust to lost probes and edge races.
func (d *Detector) reprobe(ch *callChain, bw *blockedWait) {
	gid := ch.GID()
	for {
		d.act(gid, d.walk(gid, ch, nil), DefaultProbeTTL)
		select {
		case <-bw.done:
			return
		case <-time.After(reprobeInterval):
		}
	}
}

// HandleProbe continues a chase arriving from a peer: locate the target
// chain, walk the local graph from it, and either prove the cycle, forward
// to the next site, or dead-end. Stale probes — TTL or path exhausted,
// duplicates within the dedup window, or targets this site no longer
// knows — drop to a zero verdict.
func (d *Detector) HandleProbe(p Probe) Verdict {
	if p.TTL <= 0 || len(p.Path) > maxProbePath {
		return Verdict{}
	}
	key := probeKey{initiator: p.Initiator, target: p.Target}
	now := time.Now()
	d.mu.Lock()
	if last, ok := d.seen[key]; ok && now.Sub(last) < probeDedupWindow {
		d.mu.Unlock()
		return Verdict{}
	}
	if len(d.seen) >= maxProbeSeen {
		for k, t := range d.seen {
			if now.Sub(t) >= probeDedupWindow || len(d.seen) > maxProbeSeen/2 {
				delete(d.seen, k)
			}
		}
	}
	d.seen[key] = now
	e := d.chains[p.Target]
	d.mu.Unlock()
	if e == nil {
		return Verdict{} // chain completed or never reached here: stale probe
	}
	return d.act(p.Initiator, d.walk(p.Initiator, e.ch, p.Path), p.TTL-1)
}

// walkResult is the outcome of one local graph walk: exactly one of cycle
// (closed here) or fwdPeer (chase continues remotely) is set; neither
// means the chase dead-ended on a running chain.
type walkResult struct {
	cycle     []ProbeStep
	fwdPeer   string
	fwdTarget string
	path      []ProbeStep
}

// walk follows wait→holder edges from start, extending path. It holds
// graphMu throughout, so no edge it reads is a phantom: a chain with a
// wait edge stays blocked for the whole walk and cannot release what it
// holds, and a chain that won its admission swapped its wait edge for the
// holder edge in one step under graphMu. Every edge of a cycle the walk
// closes is therefore real at once. Lock order: graphMu, then d.mu (chain
// mutexes are only taken leaf-wise via GID()).
func (d *Detector) walk(initiator string, start *callChain, path []ProbeStep) walkResult {
	steps := append([]ProbeStep(nil), path...)
	graphMu.Lock()
	d.mu.Lock()
	defer d.mu.Unlock()
	defer graphMu.Unlock()

	cur := start
	for len(steps) <= maxProbePath {
		if cur.wait == nil {
			// Not blocked here: the chain is either running (dead end) or
			// off inside a remote call — the edge the probe must chase.
			if oe := d.outbound[cur]; oe != nil {
				return walkResult{fwdPeer: oe.peer, fwdTarget: cur.GID(), path: steps}
			}
			return walkResult{}
		}
		obj := cur.wait.obj
		holder := obj.holder.Load()
		if holder == nil {
			return walkResult{} // slot in hand-off; a reprobe will re-check
		}
		steps = append(steps, ProbeStep{
			Chain:  cur.gidOrLabel(),
			Site:   d.site,
			Object: objLabel(obj),
			Holder: holder.gidOrLabel(),
		})
		if hgid := holder.GID(); hgid != "" && hgid == initiator {
			return walkResult{cycle: steps}
		}
		cur = holder
	}
	return walkResult{} // path cap: drop, the backstop covers pathology
}

// act finishes one chase leg: deliver the verdict of a closed cycle
// (aborting the victim if it blocks here), or forward the probe and relay
// the peer's verdict (again attempting the abort — the reply path visits
// every site of the cycle, so the abort lands wherever the victim waits).
func (d *Detector) act(initiator string, res walkResult, ttl int) Verdict {
	if res.cycle != nil {
		v := Verdict{
			Cycle:  describeCycle(res.cycle),
			Victim: chooseVictim(res.cycle),
		}
		for _, s := range res.cycle {
			if s.Chain == v.Victim {
				v.VictimObj = s.Object
				break
			}
		}
		d.abortIfBlocked(v)
		return v
	}
	if res.fwdPeer == "" || ttl <= 0 || d.fwd == nil {
		return Verdict{}
	}
	v, err := d.fwd.ForwardProbe(res.fwdPeer, Probe{
		Initiator: initiator,
		Target:    res.fwdTarget,
		TTL:       ttl,
		Path:      res.path,
	})
	_ = err // a lost probe is re-sent by the reprobe loop
	if v.Victim != "" {
		d.abortIfBlocked(v)
	}
	return v
}

// abortIfBlocked fires the victim's abort channel iff the victim is
// currently blocked at this site on the very object the cycle names —
// the guard that makes stale verdicts harmless to live chains.
func (d *Detector) abortIfBlocked(v Verdict) bool {
	graphMu.Lock()
	defer graphMu.Unlock()
	d.mu.Lock()
	e := d.chains[v.Victim]
	d.mu.Unlock()
	if e == nil {
		return false
	}
	bw := e.ch.wait
	if bw == nil || objLabel(bw.obj) != v.VictimObj {
		return false
	}
	select {
	case bw.abort <- v.Cycle:
	default:
	}
	return true
}

// chooseVictim picks the lowest chain identity on the cycle.
func chooseVictim(cycle []ProbeStep) string {
	victim := cycle[0].Chain
	for _, s := range cycle[1:] {
		if gidLess(s.Chain, victim) {
			victim = s.Chain
		}
	}
	return victim
}

// describeCycle renders the full cycle for the victim's error.
func describeCycle(cycle []ProbeStep) string {
	kind := "cycle: "
	parts := make([]string, len(cycle))
	for i, s := range cycle {
		if s.Site != cycle[0].Site {
			kind = "cross-site cycle: "
		}
		at := ""
		if s.Site != "" {
			at = " at " + s.Site
		}
		parts[i] = "chain " + s.Chain + at +
			" waits for " + s.Object + " held by chain " + s.Holder
	}
	return kind + strings.Join(parts, "; ")
}
