package naming

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// naiveRegistry is the reference model for Registry: two plain maps, and a
// Deregister that scans every name.
type naiveRegistry struct {
	byID   map[ID]any
	byName map[string]ID
}

func (m *naiveRegistry) register(id ID, obj any) { m.byID[id] = obj }

func (m *naiveRegistry) deregister(id ID) {
	delete(m.byID, id)
	for name, bound := range m.byName {
		if bound == id {
			delete(m.byName, name)
		}
	}
}

func (m *naiveRegistry) bind(name string, id ID) error {
	if prev, ok := m.byName[name]; ok && prev != id {
		return ErrNameTaken
	}
	if _, ok := m.byID[id]; !ok {
		return ErrUnbound
	}
	m.byName[name] = id
	return nil
}

func (m *naiveRegistry) rebind(name string, id ID) error {
	if _, ok := m.byID[id]; !ok {
		return ErrUnbound
	}
	m.byName[name] = id
	return nil
}

func (m *naiveRegistry) unbind(name string) { delete(m.byName, name) }

// registryOp is one step of a Registry history: a kind ("register",
// "deregister", "bind", "rebind", "unbind"), an ID index and a name.
type registryOp struct {
	kind string
	id   int
	name string
}

// checkAgainstModel applies ops to a Registry and to the naive model, and
// after every step compares each operation's error and every observable:
// Lookup and Resolve of each name, LookupID of each ID, Names and Len.
func checkAgainstModel(t *testing.T, ids []ID, names []string, ops []registryOp) {
	t.Helper()
	r := NewRegistry()
	m := &naiveRegistry{byID: make(map[ID]any), byName: make(map[string]ID)}
	for step, op := range ops {
		id := ids[op.id]
		var got, want error
		switch op.kind {
		case "register":
			obj := fmt.Sprintf("obj-%d-%d", op.id, step)
			r.Register(id, obj)
			m.register(id, obj)
		case "deregister":
			r.Deregister(id)
			m.deregister(id)
		case "bind":
			got, want = r.Bind(op.name, id), m.bind(op.name, id)
		case "rebind":
			got, want = r.Rebind(op.name, id), m.rebind(op.name, id)
		case "unbind":
			r.Unbind(op.name)
			m.unbind(op.name)
		}
		where := fmt.Sprintf("step %d (%s id%d %q)", step, op.kind, op.id, op.name)
		if (got == nil) != (want == nil) || (want != nil && !errors.Is(got, want)) {
			t.Fatalf("%s: error %v, model %v", where, got, want)
		}
		for _, name := range names {
			obj, err := r.Lookup(name)
			bound, inModel := m.byName[name]
			if inModel {
				if err != nil || obj != m.byID[bound] {
					t.Fatalf("%s: Lookup(%q) = (%v, %v), model %v", where, name, obj, err, m.byID[bound])
				}
			} else if !errors.Is(err, ErrUnbound) {
				t.Fatalf("%s: Lookup(%q) = (%v, %v), model unbound", where, name, obj, err)
			}
			if rid, err := r.Resolve(name); inModel != (err == nil) || (inModel && rid != bound) {
				t.Fatalf("%s: Resolve(%q) = (%v, %v), model (%v, %v)", where, name, rid, err, bound, inModel)
			}
		}
		for i, id := range ids {
			obj, err := r.LookupID(id)
			if mobj, ok := m.byID[id]; ok != (err == nil) || (ok && obj != mobj) {
				t.Fatalf("%s: LookupID(id%d) = (%v, %v), model (%v, %v)", where, i, obj, err, mobj, ok)
			}
		}
		gotNames := r.Names()
		slices.Sort(gotNames)
		var wantNames []string
		for name := range m.byName {
			wantNames = append(wantNames, name)
		}
		slices.Sort(wantNames)
		if !slices.Equal(gotNames, wantNames) {
			t.Fatalf("%s: Names = %v, model %v", where, gotNames, wantNames)
		}
		if r.Len() != len(m.byID) {
			t.Fatalf("%s: Len = %d, model %d", where, r.Len(), len(m.byID))
		}
	}
}

// TestRegistryMatchesNaiveModel pins the ID → names index against the
// naive model on hand-written histories: several names per ID, a name
// moved between IDs, and re-registration.
func TestRegistryMatchesNaiveModel(t *testing.T) {
	g := NewGenerator("model")
	ids := []ID{g.New(), g.New(), g.New()}
	names := []string{"a", "b", "c", "d"}
	cases := map[string][]registryOp{
		"aliases die with their object": {
			{"register", 0, ""}, {"bind", 0, "a"}, {"bind", 0, "b"}, {"bind", 0, "c"},
			{"register", 1, ""}, {"bind", 1, "d"}, {"deregister", 0, ""},
		},
		"a name moved by Rebind stays with its new object": {
			{"register", 0, ""}, {"register", 1, ""}, {"bind", 0, "a"}, {"bind", 0, "b"},
			{"rebind", 1, "a"}, {"deregister", 0, ""}, {"deregister", 1, ""},
		},
		"unbind then rebind the same name": {
			{"register", 0, ""}, {"bind", 0, "a"}, {"bind", 0, "b"}, {"unbind", 0, "a"},
			{"rebind", 0, "a"}, {"rebind", 0, "a"}, {"bind", 0, "a"}, {"deregister", 0, ""},
		},
		"re-registration keeps names": {
			{"register", 0, ""}, {"bind", 0, "a"}, {"register", 0, ""}, {"bind", 1, "b"},
			{"bind", 1, "a"}, {"register", 1, ""}, {"bind", 1, "a"}, {"rebind", 2, "a"},
			{"register", 2, ""}, {"rebind", 2, "a"}, {"deregister", 0, ""},
		},
	}
	for name, ops := range cases {
		t.Run(name, func(t *testing.T) { checkAgainstModel(t, ids, names, ops) })
	}
}

// TestRegistryRandomHistories runs seeded random histories over a small ID
// and name pool, so names collide, move and get deregistered often.
func TestRegistryRandomHistories(t *testing.T) {
	g := NewGenerator("model")
	ids := []ID{g.New(), g.New(), g.New(), g.New()}
	names := []string{"a", "b", "c", "d", "e", "f"}
	kinds := []string{"register", "register", "deregister", "bind", "bind", "rebind", "rebind", "unbind"}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]registryOp, 200)
		for i := range ops {
			ops[i] = registryOp{kinds[rng.Intn(len(kinds))], rng.Intn(len(ids)), names[rng.Intn(len(names))]}
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { checkAgainstModel(t, ids, names, ops) })
	}
}
