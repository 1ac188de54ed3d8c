package hadas

// End-to-end tests for distributed deadlock detection: a genuine
// cross-site A→B→A cycle of Serialized admissions over real TCP sockets,
// the probe verb's wire codec, and the hygiene guarantees (completed
// chains forgotten, stale probes dead-ending) at the protocol level.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/value"
)

// dlAdmitTimeout is the admission backstop for the deadlock tests; the
// probes must win the race against it by a wide margin.
const dlAdmitTimeout = 6 * time.Second

// installLock registers the hop/enter behaviors at s and installs a
// Serialized "lock" APO. "hop" admits the local lock, lingers (so the
// cross-site holds overlap), then relays into the peer site's lock — the
// half of the classic cycle this site contributes.
func installLock(t *testing.T, s *Site, peer string, linger time.Duration) *core.Object {
	t.Helper()
	s.Behaviors().Register("dl.enter", func(*core.Invocation, []value.Value) (value.Value, error) {
		return value.NewString("entered"), nil
	})
	s.Behaviors().Register("dl.hop", func(inv *core.Invocation, _ []value.Value) (value.Value, error) {
		site, err := siteOf(inv)
		if err != nil {
			return value.Null, err
		}
		peerV, err := inv.Invoke("get", value.NewString("peer"))
		if err != nil {
			return value.Null, err
		}
		ms, err := inv.Invoke("get", value.NewString("lingerMs"))
		if err != nil {
			return value.Null, err
		}
		n, _ := ms.Int()
		time.Sleep(time.Duration(n) * time.Millisecond)
		return site.InvokeRemoteFrom(inv, peerV.String(), inv.Self().Principal(),
			"lock", "enter")
	})
	b := s.NewAPOBuilder("Lock", core.Serialized(), core.AdmissionTimeout(dlAdmitTimeout))
	hop, err := s.Behaviors().Lookup("dl.hop")
	if err != nil {
		t.Fatal(err)
	}
	enter, _ := s.Behaviors().Lookup("dl.enter")
	b.FixedMethod("hop", hop)
	b.FixedMethod("enter", enter)
	b.FixedData("peer", value.NewString(peer))
	b.FixedData("lingerMs", value.NewInt(int64(linger/time.Millisecond)))
	obj := b.MustBuild()
	if err := s.AddAPO("lock", obj); err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestCrossSiteDeadlockOverTCP is the acceptance scenario: two TCP-linked
// sites, each hosting a Serialized lock whose method calls into the
// other's — driven concurrently so each chain holds its local lock and
// blocks on the remote one. The edge-chasing probes must abort exactly
// one chain (the deterministic victim: lowest identity, i.e. the chain
// minted at the lexicographically smaller site) with ErrDeadlock naming
// the full cycle, well before the admission timeout; the other chain
// completes.
func TestCrossSiteDeadlockOverTCP(t *testing.T) {
	const linger = 150 * time.Millisecond
	a, err := NewSite(Config{Name: "dla"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	b, err := NewSite(Config{Name: "dlb"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addrB, err := b.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Link(addrB); err != nil {
		t.Fatal(err)
	}

	lockA := installLock(t, a, "dlb", linger)
	lockB := installLock(t, b, "dla", linger)
	clientA := a.IOO().Principal()
	clientB := b.IOO().Principal()

	var wg sync.WaitGroup
	var errA, errB error
	start := make(chan struct{})
	begun := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-start
		_, errA = lockA.Invoke(clientA, "hop")
	}()
	go func() {
		defer wg.Done()
		<-start
		_, errB = lockB.Invoke(clientB, "hop")
	}()
	close(start)
	wg.Wait()
	elapsed := time.Since(begun)

	// Deterministic victim: the chain minted at "dla" has the lower
	// identity ("dla" < "dlb"), so site A's invocation aborts and site B's
	// completes.
	if !errors.Is(errA, core.ErrDeadlock) {
		t.Fatalf("site A chain (the victim) err = %v, want ErrDeadlock", errA)
	}
	if errB != nil {
		t.Errorf("site B chain (the survivor) err = %v, want success", errB)
	}

	// The victim's error names the whole cross-site cycle: both objects,
	// both chains (origin sites in the identities), both sites.
	msg := errA.Error()
	for _, want := range []string{"cross-site cycle", "dla:", "dlb:",
		"at dla", "at dlb", "waits for", "held by"} {
		if !strings.Contains(msg, want) {
			t.Errorf("victim error missing %q:\n%s", want, msg)
		}
	}
	if n := strings.Count(msg, "Lock<"); n < 2 {
		t.Errorf("victim error names %d lock objects, want both:\n%s", n, msg)
	}

	// Detection raced the backstop and won by an order of magnitude.
	if detect := elapsed - linger; detect > dlAdmitTimeout/10 {
		t.Errorf("detection took %v after the holds overlapped, want < %v",
			detect, dlAdmitTimeout/10)
	}

	// Both locks are released and healthy afterwards.
	if v, err := lockA.Invoke(clientA, "enter"); err != nil || v.String() != "entered" {
		t.Errorf("lock A after deadlock = (%v, %v)", v, err)
	}
	if v, err := lockB.Invoke(clientB, "enter"); err != nil || v.String() != "entered" {
		t.Errorf("lock B after deadlock = (%v, %v)", v, err)
	}
}

// TestCompletedChainsForgotten: once relayed serialized calls complete,
// neither site still tracks their chain identities — so probes naming
// them (stale, delayed, or replayed) dead-end with a zero verdict instead
// of ever touching a future chain.
func TestCompletedChainsForgotten(t *testing.T) {
	net := transport.NewInProcNet()
	a := newTestSite(t, net, "gca")
	b := newTestSite(t, net, "gcb")
	if _, err := a.Link("gcb"); err != nil {
		t.Fatal(err)
	}

	lockA := installLock(t, a, "gcb", 0)
	installLock(t, b, "gca", 0)

	client := a.IOO().Principal()
	for i := 0; i < 5; i++ {
		if v, err := lockA.Invoke(client, "hop"); err != nil || v.String() != "entered" {
			t.Fatalf("hop %d = (%v, %v)", i, v, err)
		}
	}
	if n := a.DeadlockDetector().ChainCount(); n != 0 {
		t.Errorf("site A still tracks %d chains after completion", n)
	}
	if n := b.DeadlockDetector().ChainCount(); n != 0 {
		t.Errorf("site B still tracks %d chains after completion", n)
	}

	// The same holds for a chain minted below the top-level call (a plain
	// front object reaching a Serialized relay), and for that chain's
	// incarnation at B blocking on a site-less Serialized gate — which
	// registers it with the process-default detector.
	gateHeld, gateFree := make(chan struct{}), make(chan struct{})
	gb := b.NewAPOBuilder("Gate", core.Serialized(), core.WithResolver(nil))
	gb.FixedMethod("hold", core.NewNativeBody("gc.hold", func(*core.Invocation, []value.Value) (value.Value, error) {
		close(gateHeld)
		<-gateFree
		return value.Null, nil
	}))
	gb.FixedScriptMethod("pass", `fn() { return "passed"; }`)
	gate := gb.MustBuild()
	gated := b.NewAPOBuilder("Gated")
	gated.FixedMethod("enter", core.NewNativeBody("gc.enter", func(inv *core.Invocation, _ []value.Value) (value.Value, error) {
		return inv.InvokeOn(gate, "pass")
	}))
	if err := b.AddAPO("gated", gated.MustBuild()); err != nil {
		t.Fatal(err)
	}
	rb := a.NewAPOBuilder("Relay", core.Serialized())
	rb.FixedMethod("relay", core.NewNativeBody("gc.relay", func(inv *core.Invocation, _ []value.Value) (value.Value, error) {
		return a.InvokeRemoteFrom(inv, "gcb", inv.Self().Principal(), "gated", "enter")
	}))
	relay := rb.MustBuild()
	fb := a.NewAPOBuilder("Front")
	fb.FixedMethod("go", core.NewNativeBody("gc.front", func(inv *core.Invocation, _ []value.Value) (value.Value, error) {
		return inv.InvokeOn(relay, "relay")
	}))
	front := fb.MustBuild()

	holdDone := make(chan error, 1)
	go func() {
		_, err := gate.Invoke(b.IOO().Principal(), "hold")
		holdDone <- err
	}()
	<-gateHeld
	frontDone := make(chan error, 1)
	go func() {
		v, err := front.Invoke(client, "go")
		if err == nil && v.String() != "passed" {
			err = errors.New("front returned " + v.String())
		}
		frontDone <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); core.DefaultDetector().ChainCount() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("relayed chain never blocked on the site-less gate")
		}
		time.Sleep(time.Millisecond)
	}
	close(gateFree)
	if err := <-holdDone; err != nil {
		t.Fatalf("gate hold: %v", err)
	}
	if err := <-frontDone; err != nil {
		t.Fatalf("front: %v", err)
	}
	for _, d := range []*core.Detector{a.DeadlockDetector(), b.DeadlockDetector(), core.DefaultDetector()} {
		if n := d.ChainCount(); n != 0 {
			t.Errorf("detector %q still tracks %d chains after completion", d.Site(), n)
		}
	}

	// A stale probe naming a completed (or never-known) chain crosses the
	// wire fine and dead-ends.
	v, err := a.ForwardProbe("gcb", core.Probe{
		Initiator: "gca:999",
		Target:    "gca:998",
		TTL:       core.DefaultProbeTTL,
		Path: []core.ProbeStep{{
			Chain: "gca:999", Site: "gca", Object: "Lock<x>", Holder: "gca:998",
		}},
	})
	if err != nil {
		t.Fatalf("stale probe errored: %v", err)
	}
	if v != (core.Verdict{}) {
		t.Errorf("stale probe produced a verdict: %+v", v)
	}
}

// TestProbeVerbIsRetrySafe pins the transport contract: the probe verb is
// on the retry-safe list (ResilientConn may replay it after a cut), and
// hadas.invoke remains off it.
func TestProbeVerbIsRetrySafe(t *testing.T) {
	if !retrySafeVerb(verbProbe) {
		t.Error("probe verb must be retry-safe (idempotent by construction)")
	}
	if retrySafeVerb(verbInvoke) {
		t.Error("invoke verb must NOT be retry-safe")
	}
}
