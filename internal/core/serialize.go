package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the "advanced features … synchronization mechanisms
// to allow implementation of concurrent programming models" requirement
// (§1). An object built with Serialized() processes external invocations
// one at a time, actor-style: the object's methods can then mutate its
// state without further coordination, which is the concurrency model most
// mobile-object programs assume.
//
// Admission is tracked per call chain, not per re-entry depth: the first
// invocation a chain makes on a serialized object acquires its slot, and
// every later arrival of the same chain at that object — self-calls,
// meta-invoke levels, and cycles through other objects (A→B→A) — runs
// inside the admission already granted, so re-entrancy never deadlocks.
// A chain reaching a *different* serialized object (A→B with B serialized)
// queues on B like any fresh entry; the earlier depth-based rule silently
// skipped that queue and let B's bodies interleave.
//
// Two chains that hold each other's objects and then cross (A→B while
// B→A) would block forever, exactly as two actors awaiting each other
// would. That condition is diagnosed instead of suffered. The waits-for
// graph is intrusive: each admitted object points at its holding chain
// (Object.holder), each blocked chain at the admission it waits for
// (callChain.wait). A blocked chain is chased by the deadlock detector of
// the object's site (deadlock.go; site-less objects use the process
// default): a cycle inside the process is a zero-hop probe, a cycle
// through a remote call is chased over the wire, and either way the
// lowest chain identity on the cycle fails with ErrDeadlock naming every
// chain and object on it — its abort releases its admissions, so the
// surviving chains proceed. A per-object admission timeout, failing
// ErrAdmissionTimeout, is the backstop for blockages no probe can
// attribute (a holder that is simply stuck, or a lost peer).
//
// Structural operations remain guarded by the object's internal lock
// regardless, so Serialized() is about *method bodies*, not about memory
// safety (which holds either way).

// DefaultAdmissionTimeout bounds how long an invocation waits for a
// serialized object's admission slot before failing ErrAdmissionTimeout.
// Override per object with AdmissionTimeout.
const DefaultAdmissionTimeout = 10 * time.Second

// Serialized makes the object admit one external invocation at a time,
// with DefaultAdmissionTimeout as its admission bound.
func Serialized() BuildOption {
	return func(o *Object) {
		o.admission = make(chan struct{}, 1)
		if o.admitTimeout == 0 {
			o.admitTimeout = DefaultAdmissionTimeout
		}
	}
}

// AdmissionTimeout overrides how long invocations wait for this object's
// admission slot (meaningful only together with Serialized).
func AdmissionTimeout(d time.Duration) BuildOption {
	return func(o *Object) { o.admitTimeout = d }
}

// chainSeq numbers call chains for diagnostics.
var chainSeq atomic.Uint64

// graphMu guards every chain's wait edge. It is taken only off the
// uncontended path: when a chain blocks, when its wait resolves, and for
// the whole of a detector walk. A contended acquire swaps its wait edge
// for the object's holder edge under graphMu, so a walk never sees a
// chain both waiting for and holding the same admission. Lock order:
// graphMu, then Detector.mu.
var graphMu sync.Mutex

// callChain is one invocation chain's identity across the serialized
// objects it enters. It propagates through every child Invocation, so
// re-entry (Object.holder == chain) is recognized no matter how many
// objects the chain traversed in between. Bodies may hand work to helper
// goroutines that call back in — the small mutex keeps the lazily minted
// identity and the detector registrations safe.
type callChain struct {
	id    uint64
	entry string       // "<class>.<method>" of the chain's first serialized entry
	wait  *blockedWait // admission the chain is blocked on; guarded by graphMu
	mu    sync.Mutex
	gid   string      // global identity "origin:id", minted lazily (deadlock.go)
	regs  []*Detector // detectors holding a liveness ref on this chain
}

func newCallChain(o *Object, method string) *callChain {
	return &callChain{id: chainSeq.Add(1), entry: o.class + "." + method}
}

// label identifies the chain in deadlock diagnostics.
func (c *callChain) label() string {
	if c.entry == "" {
		return fmt.Sprintf("chain#%d", c.id)
	}
	return fmt.Sprintf("chain#%d[%s]", c.id, c.entry)
}

// objLabel identifies an object in deadlock diagnostics.
func objLabel(o *Object) string {
	return fmt.Sprintf("%s<%s>", o.class, o.id)
}

// releaseAdmission clears the holder edge before freeing the slot, so no
// waiter can observe a stale holder once the slot is grantable again.
func (o *Object) releaseAdmission() {
	o.holder.Store(nil)
	<-o.admission
}

// admit acquires the admission slot unless this call chain already holds
// it; it returns a release function (no-op for non-serialized objects and
// re-entries). A chain minted by this admission ends with it: its
// detector registrations go when the release runs, or at once if the
// admission fails. A blocked admission whose waits-for cycle picks this
// chain as the victim fails ErrDeadlock; one that outlasts the object's
// admission timeout fails ErrAdmissionTimeout.
func (o *Object) admit(inv *Invocation, method string) (func(), error) {
	if o.admission == nil {
		return func() {}, nil
	}
	chain, minted := inv.chain, inv.chain == nil
	if minted {
		chain = newCallChain(o, method)
		inv.chain = chain
	} else if o.holder.Load() == chain {
		return func() {}, nil
	}

	// Uncontended: take the slot without touching the graph lock.
	select {
	case o.admission <- struct{}{}:
		o.holder.Store(chain)
	default:
		if err := o.await(chain); err != nil {
			if minted {
				chain.completeLocal()
			}
			return nil, err
		}
	}
	if minted {
		return func() {
			o.releaseAdmission()
			chain.completeLocal()
		}, nil
	}
	return o.releaseAdmission, nil
}

// await blocks chain on o's admission. The wait edge is published and
// chased by the detector of o's site (or the process default), which
// fires the abort if this chain is the victim of a cycle; the timeout is
// the backstop.
func (o *Object) await(chain *callChain) error {
	abortCh, end := o.detector().blockBegin(chain, o)
	defer end()
	timeout := o.admitTimeout
	if timeout <= 0 {
		timeout = DefaultAdmissionTimeout
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case o.admission <- struct{}{}:
		// Swap the wait edge for the holder edge in one step of the graph.
		graphMu.Lock()
		chain.wait = nil
		o.holder.Store(chain)
		graphMu.Unlock()
		return nil
	case desc := <-abortCh:
		return fmt.Errorf("%w: %s aborted as the victim of a %s", ErrDeadlock, chain.label(), desc)
	case <-timer.C:
		return fmt.Errorf("%w: %s waited %v for %s (%s)", ErrAdmissionTimeout,
			chain.label(), timeout, objLabel(o), holderDesc(o))
	}
}

// holderDesc names the chain holding o's admission at backstop time, so a
// timeout firing is debuggable: it identifies both sides of the blockage.
func holderDesc(o *Object) string {
	holder := o.holder.Load()
	if holder == nil {
		return "currently unheld"
	}
	if gid := holder.GID(); gid != "" {
		return "held by " + holder.label() + " (" + gid + ")"
	}
	return "held by " + holder.label()
}
