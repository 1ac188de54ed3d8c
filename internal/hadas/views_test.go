package hadas

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/transport"
	"repro/internal/value"
)

// The IOO's "home", "vicinity" and "interop" items are derived: they list
// their container whenever they are read, and no container mutation writes
// them. These tests pin both halves of that contract — the views always
// equal the containers, and a migration's cost does not depend on how many
// objects the sites hold.

// bouncer installs an agent whose onArrival sends it straight back to
// origin: one DispatchAgent call is a full round trip.
func bouncer(t testing.TB, s *Site, name string) {
	t.Helper()
	b := s.NewAPOBuilder("Bouncer")
	b.FixedScriptMethod("onArrival", fmt.Sprintf(`fn(hop) {
		if hop["hostSite"] == %q { return "home"; }
		return ctx.lookup("ioo").dispatchAgent(hop["agent"], %q);
	}`, s.Name(), s.Name()))
	if err := s.AddAPO(name, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
}

// populate installs n inert residents into s.
func populate(t testing.TB, s *Site, n int) {
	t.Helper()
	apos := make(map[string]*core.Object, n)
	for i := 0; i < n; i++ {
		b := s.NewAPOBuilder("Resident")
		b.FixedData("n", value.NewInt(int64(i)))
		apos[fmt.Sprintf("resident-%05d", i)] = b.MustBuild()
	}
	if err := s.AddAPOs(apos); err != nil {
		t.Fatal(err)
	}
}

// bytesPerJourney measures the bytes allocated per DispatchAgent round trip
// between two linked in-proc sites that each hold residents objects.
func bytesPerJourney(t *testing.T, residents int) float64 {
	t.Helper()
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSite(t, net, "b", persist.NewMemStore())
	link(t, a, "b")
	populate(t, a, residents)
	populate(t, b, residents)
	bouncer(t, a, "ball")

	journey := func() {
		v, err := a.DispatchAgent("ball", "b")
		if err != nil {
			t.Fatal(err)
		}
		if v.String() != "home" {
			t.Fatalf("journey = %v", v)
		}
	}
	for i := 0; i < 20; i++ {
		journey() // warm caches, connections and the dedup tables
	}
	const hops = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hops; i++ {
		journey()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / hops
}

// TestMigrationAllocsIndependentOfPopulation: an agent round trip between
// sites of 10,000 residents allocates no more than 1.25× what it does
// between sites of 100. Any per-migration step that enumerates Home, the
// registry or a shard copy grows with the population and fails this.
func TestMigrationAllocsIndependentOfPopulation(t *testing.T) {
	small := bytesPerJourney(t, 100)
	large := bytesPerJourney(t, 10000)
	t.Logf("bytes per journey: %.0f at 100 residents, %.0f at 10000", small, large)
	if large > 1.25*small {
		t.Errorf("journey allocates %.0f B at 10000 residents vs %.0f B at 100 (%.2fx > 1.25x)",
			large, small, large/small)
	}
}

// stringsOf converts a list value to its element strings.
func stringsOf(t *testing.T, v value.Value) []string {
	t.Helper()
	l, ok := v.List()
	if !ok {
		t.Fatalf("view is %v, not a list", v)
	}
	out := make([]string, len(l))
	for i, e := range l {
		out[i] = e.String()
	}
	return out
}

// TestIOOViewsAreDerived churns Home (installs and agent journeys), the
// Vicinity (links) and Interop (programs) concurrently, then checks that
// get, Snapshot and getDataItem all report exactly the containers' state,
// and that the views refuse writes.
func TestIOOViewsAreDerived(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	newMigSite(t, net, "b", persist.NewMemStore())
	link(t, a, "b")
	bouncer(t, a, "ball")

	const rounds = 30
	peers := make([]string, rounds)
	for i := range peers {
		peers[i] = fmt.Sprintf("peer-%02d", i)
		newMigSite(t, net, peers[i], persist.NewMemStore())
	}
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f(i)
			}
		}()
	}
	run(func(i int) {
		if err := a.AddAPO(fmt.Sprintf("grown-%02d", i), a.NewAPOBuilder("G").MustBuild()); err != nil {
			t.Error(err)
		}
	})
	run(func(int) {
		if v, err := a.DispatchAgent("ball", "b"); err != nil || v.String() != "home" {
			t.Errorf("journey = (%v, %v)", v, err)
		}
	})
	run(func(i int) {
		if _, err := a.Link(peers[i]); err != nil {
			t.Error(err)
		}
	})
	run(func(i int) {
		if err := a.AddProgram(fmt.Sprintf("prog%02d", i), `fn() { return 1; }`); err != nil {
			t.Error(err)
		}
	})
	run(func(int) { // readers race the writers (-race patrols the locks)
		for _, item := range []string{"home", "vicinity", "interop"} {
			if _, err := a.IOO().Get(a.IOO().Principal(), item); err != nil {
				t.Error(err)
			}
		}
		if _, err := a.IOO().Snapshot(); err != nil {
			t.Error(err)
		}
	})
	wg.Wait()

	ioo, self := a.IOO(), a.IOO().Principal()
	want := map[string][]string{
		"home":     a.APONames(),
		"vicinity": a.PeerNames(),
		"interop":  a.ProgramNames(),
	}
	if n := len(want["home"]); n != rounds+1 {
		t.Fatalf("Home holds %d members, want %d", n, rounds+1)
	}
	img, err := ioo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	imaged := make(map[string]value.Value)
	for _, d := range img.ExtData {
		imaged[d.Name] = d.Value
	}
	for item, names := range want {
		got, err := ioo.Get(self, item)
		if err != nil {
			t.Fatal(err)
		}
		if g := stringsOf(t, got); fmt.Sprint(g) != fmt.Sprint(names) {
			t.Errorf("get %s = %v, want %v", item, g, names)
		}
		if g := stringsOf(t, imaged[item]); fmt.Sprint(g) != fmt.Sprint(names) {
			t.Errorf("Snapshot %s = %v, want %v", item, g, names)
		}
		desc, err := ioo.InvokeSelf("getDataItem", value.NewString(item))
		if err != nil {
			t.Fatal(err)
		}
		if m, _ := desc.Map(); m["kind"].String() != "list" {
			t.Errorf("getDataItem %s kind = %v, want list", item, m["kind"])
		}

		if err := ioo.Set(self, item, value.NewList(nil)); !errors.Is(err, core.ErrFixed) {
			t.Errorf("set %s = %v, want ErrFixed", item, err)
		}
		if _, err := ioo.InvokeSelf("setDataItem", value.NewString(item),
			value.NewMap(map[string]value.Value{"value": value.NewList(nil)})); !errors.Is(err, core.ErrFixed) {
			t.Errorf("setDataItem %s value = %v, want ErrFixed", item, err)
		}
	}
}
