package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hadas"
	"repro/internal/persist"
	"repro/internal/value"
	"repro/internal/wire"
)

// scale sizes a topology; tests shrink it.
type scale struct {
	residents int // resident APOs per populated site
	imports   int // interop: Ambassadors alpha imports
	payload   int // agents: bytes of the payload item each agent carries
}

var fullScale = scale{residents: 10000, imports: 256, payload: 2048}

// arrivalCap caps each agents site's migration dedup table
// (Config.MaxArrivalRecords). Every journey adds a record at both sites
// until the cap, then evicts the oldest; records hold the agent's image.
// At the default cap (4,096) the table would still be filling, and the
// heap growing, through a whole measured phase, so the figures would
// depend on how many journeys came before. The warm-up runs until both
// tables are at this cap.
const arrivalCap = 256

// residentPool bounds the distinct resident objects, as in
// experiments.LoadedSites: above it names alias pool members, so the
// population under test is the Home container, not the object heap.
const residentPool = 1024

// clients is the number of closed-loop clients. They share the one P the
// benchmark runs on (procs), so two ops can be in flight at once.
const clients = 2

// env is what a workload's set-up needs from the run.
type env struct {
	tr    *tracer // nil in an untraced run
	seed  int64
	scale scale
	// echoDelta, when set, makes every echo wrong by that much: tests use
	// it to show the interop output check fires.
	echoDelta int64
}

// topo is one built two-site topology and the workload that drives it.
type topo struct {
	alpha, beta *hadas.Site
	// op performs one op for a client and checks its output. It returns
	// the op's trace key.
	op func(c *client) (int64, error)
	// check verifies the program's state once the clients have stopped.
	check func() error
	// warming, when set, reports whether the warm-up must go on: state
	// the ops build up has not reached its steady size yet.
	warming func() bool
	// local is one warm local invoke at beta (core.local_invoke_ns).
	local func() error
	// keyOf extracts the op key from a call's request payload.
	keyOf func(verb string, payload []byte) (int64, bool)
	// imageBytes is the encoded size of the agent image (agents only).
	imageBytes func() int
	close      func()
}

// client is one closed-loop client's state.
type client struct {
	idx int
	rng *rand.Rand
}

type workload struct {
	name  string
	setup func(e *env) (*topo, error)
}

var workloads = []workload{
	{"interop", setupInterop},
	{"agents", setupAgents},
}

var errOutput = errors.New("wrong output")

// newSite builds one site serving on loopback TCP. Under tracing its
// outbound connections are timed.
func newSite(e *env, name string, idx int8, store persist.Backend, arrivals int) (*hadas.Site, string, error) {
	cfg := hadas.Config{Name: name, Store: store, MaxArrivalRecords: arrivals}
	if e.tr != nil {
		cfg.Dial = timedDial(e.tr, idx)
		if store != nil {
			cfg.Store = &timedStore{Backend: store, tr: e.tr}
		}
	}
	s, err := hadas.NewSite(cfg)
	if err != nil {
		return nil, "", err
	}
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, "", err
	}
	return s, addr, nil
}

// newPair builds alpha and beta and links alpha to beta: one connection
// per direction, beta's dialled on its first call back. arrivals is both
// sites' Config.MaxArrivalRecords.
func newPair(e *env, alphaStore, betaStore persist.Backend, arrivals int) (alpha, beta *hadas.Site, err error) {
	beta, addr, err := newSite(e, "beta", 1, betaStore, arrivals)
	if err != nil {
		return nil, nil, err
	}
	alpha, _, err = newSite(e, "alpha", 0, alphaStore, arrivals)
	if err != nil {
		beta.Close()
		return nil, nil, err
	}
	if _, err := alpha.Link(addr); err != nil {
		alpha.Close()
		beta.Close()
		return nil, nil, err
	}
	return alpha, beta, nil
}

// addResidents installs n resident APOs, each with an echo "work", in one
// batch and returns their names.
func addResidents(s *hadas.Site, n int, work core.Body) ([]string, error) {
	pool := make([]*core.Object, min(n, residentPool))
	for i := range pool {
		b := s.NewAPOBuilder("Resident")
		b.FixedData("idx", value.NewInt(int64(i)))
		b.FixedMethod("work", work)
		obj, err := b.Build()
		if err != nil {
			return nil, err
		}
		pool[i] = obj
	}
	names := make([]string, n)
	batch := make(map[string]*core.Object, n)
	for i := range names {
		names[i] = fmt.Sprintf("apo-%07d", i)
		batch[names[i]] = pool[i%len(pool)]
	}
	return names, s.AddAPOs(batch)
}

// echoBody registers the residents' native "work": it returns its first
// argument, and under tracing records a body span keyed by it.
func echoBody(s *hadas.Site, e *env) core.Body {
	tr := e.tr
	return s.Behaviors().Register("perfbench.echo", func(_ *core.Invocation, args []value.Value) (value.Value, error) {
		if len(args) == 0 {
			return value.Null, nil
		}
		if tr.active() {
			start := tr.now()
			defer func() {
				k, _ := args[0].Int()
				tr.add(span{kind: kindBody, hasKey: true, key: k, start: start, end: tr.now()})
			}()
		}
		if e.echoDelta != 0 {
			n, _ := args[0].Int()
			return value.NewInt(n + e.echoDelta), nil
		}
		return args[0], nil
	})
}

// importAll imports each named APO of beta at alpha and returns the
// Ambassadors.
func importAll(alpha *hadas.Site, names []string) ([]*core.Object, error) {
	ambs := make([]*core.Object, len(names))
	for i, n := range names {
		local, err := alpha.Import("beta", n)
		if err != nil {
			return nil, err
		}
		if ambs[i], err = alpha.ResolveObject(local); err != nil {
			return nil, err
		}
	}
	return ambs, nil
}

// invokeKey reads the op id an invoke request carries as its first argument.
func invokeKey(verb string, payload []byte) (int64, bool) {
	if verb != "hadas.invoke" {
		return 0, false
	}
	m, ok := decodeMap(payload)
	if !ok {
		return 0, false
	}
	args, _ := m["args"].List()
	if len(args) == 0 {
		return 0, false
	}
	return args[0].Int()
}

func decodeMap(payload []byte) (map[string]value.Value, bool) {
	v, err := wire.DecodeValue(payload)
	if err != nil {
		return nil, false
	}
	return v.Map()
}

func closeSites(sites ...*hadas.Site) {
	for _, s := range sites {
		if s != nil {
			s.Close()
		}
	}
}

// interop: alpha relays reads through thin Ambassadors to residents of a
// populated beta, the paper's interoperability path.
func setupInterop(e *env) (*topo, error) {
	alpha, beta, err := newPair(e, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	names, err := addResidents(beta, e.scale.residents, echoBody(beta, e))
	if err != nil {
		closeSites(alpha, beta)
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	chosen := make([]string, e.scale.imports)
	for i, j := range rng.Perm(len(names))[:len(chosen)] {
		chosen[i] = names[j]
	}
	ambs, err := importAll(alpha, chosen)
	if err != nil {
		closeSites(alpha, beta)
		return nil, err
	}
	caller := alpha.IOO().Principal()
	target, err := beta.APO(chosen[0])
	if err != nil {
		closeSites(alpha, beta)
		return nil, err
	}
	local := beta.IOO().Principal()
	return &topo{
		alpha: alpha, beta: beta,
		op: func(c *client) (int64, error) {
			amb := ambs[c.rng.Intn(len(ambs))]
			id := c.rng.Int63()
			v, err := amb.Invoke(caller, "work", value.NewInt(id))
			if err != nil {
				return id, err
			}
			return id, checkEcho(v, id)
		},
		check: func() error { return nil },
		local: func() error {
			v, err := target.Invoke(local, "work", value.NewInt(7))
			if err != nil {
				return err
			}
			return checkEcho(v, 7)
		},
		keyOf: invokeKey,
		close: func() { closeSites(alpha, beta) },
	}, nil
}

func checkEcho(v value.Value, id int64) error {
	if n, ok := v.Int(); !ok || n != id {
		return fmt.Errorf("%w: echo %v, want %d", errOutput, v, id)
	}
	return nil
}

// agentScript counts the arrival and bounces the agent back to alpha; at
// alpha the journey ends. It is the E11 bouncer plus the hop counter.
const agentScript = `fn(hop) {
	self.arrive(hop["agent"]);
	if hop["hostSite"] == "alpha" { return "home"; }
	return ctx.lookup("ioo").dispatchAgent(hop["agent"], "alpha");
}`

// arriveBody registers the agents' native "arrive", called with the
// agent's name: it counts the hop and, given a tracer, records a body span
// keyed by the agent's client.
func arriveBody(s *hadas.Site, tr *tracer) core.Body {
	hops := value.NewString("hops")
	return s.Behaviors().Register("perfbench.arrive", func(inv *core.Invocation, args []value.Value) (value.Value, error) {
		var start int64
		traced := tr.active()
		if traced {
			start = tr.now()
		}
		cur, err := inv.Invoke("get", hops)
		if err != nil {
			return value.Null, err
		}
		n, _ := cur.Int()
		if _, err := inv.Invoke("set", hops, value.NewInt(n+1)); err != nil {
			return value.Null, err
		}
		if traced {
			if c, ok := agentIndex(args); ok {
				tr.add(span{kind: kindBody, hasKey: true, key: c, start: start, end: tr.now()})
			}
		}
		return value.NewInt(n + 1), nil
	})
}

// agentIndex reads the client index from an agent name argument.
func agentIndex(args []value.Value) (int64, bool) {
	var c int64
	if len(args) == 0 {
		return 0, false
	}
	_, err := fmt.Sscanf(args[0].String(), "agent-%d", &c)
	return c, err == nil
}

func agentName(c int) string { return fmt.Sprintf("agent-%d", c) }

// agents: each client bounces its own agent alpha → beta → alpha between
// two populated sites; migration and Home updates do the work.
func setupAgents(e *env) (*topo, error) {
	var alphaStore, betaStore persist.Backend = persist.NewMemStore(), persist.NewMemStore()
	alpha, beta, err := newPair(e, alphaStore, betaStore, arrivalCap)
	if err != nil {
		return nil, err
	}
	names, err := addResidents(beta, e.scale.residents, echoBody(beta, e))
	if err == nil {
		_, err = addResidents(alpha, e.scale.residents, echoBody(alpha, e))
	}
	if err != nil {
		closeSites(alpha, beta)
		return nil, err
	}
	// Only beta's arrivals are spans: alpha's happen inside the return hop.
	arrive := arriveBody(alpha, nil)
	arriveBody(beta, e.tr)
	rng := rand.New(rand.NewSource(e.seed))
	payload := make([]byte, e.scale.payload)
	rng.Read(payload)
	for c := 0; c < clients; c++ {
		b := alpha.NewAPOBuilder("Bouncer")
		b.ExtData("hops", value.NewInt(0))
		b.ExtData("payload", value.NewBytes(payload))
		b.FixedMethod("arrive", arrive)
		b.FixedScriptMethod("onArrival", agentScript)
		obj, err := b.Build()
		if err == nil {
			err = alpha.AddAPO(agentName(c), obj)
		}
		if err != nil {
			closeSites(alpha, beta)
			return nil, err
		}
	}
	var journeys [clients]atomic.Int64
	target, err := beta.APO(names[0])
	if err != nil {
		closeSites(alpha, beta)
		return nil, err
	}
	local := beta.IOO().Principal()
	return &topo{
		alpha: alpha, beta: beta,
		op: func(c *client) (int64, error) {
			v, err := alpha.DispatchAgent(agentName(c.idx), "beta")
			if err != nil {
				return int64(c.idx), err
			}
			if v.String() != "home" {
				return int64(c.idx), fmt.Errorf("%w: journey ended %v, want home", errOutput, v)
			}
			journeys[c.idx].Add(1)
			return int64(c.idx), nil
		},
		check: func() error {
			for c := 0; c < clients; c++ {
				if err := checkAgent(alpha, beta, agentName(c), journeys[c].Load(), payload); err != nil {
					return err
				}
			}
			for _, s := range []*hadas.Site{alpha, beta} {
				if d := s.InDoubtMigrations(); len(d) > 0 {
					return fmt.Errorf("%w: %s has in-doubt migrations %v", errOutput, s.Name(), d)
				}
			}
			return nil
		},
		local: func() error {
			v, err := target.Invoke(local, "work", value.NewInt(7))
			if err != nil {
				return err
			}
			return checkEcho(v, 7)
		},
		keyOf: func(verb string, payload []byte) (int64, bool) {
			if verb != "hadas.dispatch" {
				return 0, false
			}
			m, ok := decodeMap(payload)
			if !ok {
				return 0, false
			}
			return agentIndex([]value.Value{m["name"]})
		},
		imageBytes: func() int {
			obj, err := alpha.APO(agentName(0))
			if err != nil {
				return 0
			}
			img, err := obj.Snapshot()
			if err != nil {
				return 0
			}
			return len(wire.EncodeImage(img))
		},
		warming: func() bool {
			return len(alpha.ArrivalRecords()) < arrivalCap || len(beta.ArrivalRecords()) < arrivalCap
		},
		close: func() { closeSites(alpha, beta) },
	}, nil
}

// checkAgent verifies one agent after the run: it lives at alpha only,
// its trace ends there, it counted two arrivals per journey, and its
// payload arrived intact.
func checkAgent(alpha, beta *hadas.Site, name string, journeys int64, payload []byte) error {
	obj, err := alpha.APO(name)
	if err != nil {
		return fmt.Errorf("%w: %s not home: %v", errOutput, name, err)
	}
	if _, err := beta.APO(name); err == nil {
		return fmt.Errorf("%w: %s also lives at beta", errOutput, name)
	}
	path, st, err := alpha.TraceAgent("", name)
	if err != nil {
		return fmt.Errorf("trace %s: %w", name, err)
	}
	if st.State != hadas.AgentStatusResident || path[len(path)-1] != "alpha" {
		return fmt.Errorf("%w: %s traced to %v (%s), want resident at alpha", errOutput, name, path, st.State)
	}
	p := alpha.IOO().Principal()
	hops, err := obj.Get(p, "hops")
	if err != nil {
		return err
	}
	if n, _ := hops.Int(); n != 2*journeys {
		return fmt.Errorf("%w: %s hops = %d after %d journeys, want %d", errOutput, name, n, journeys, 2*journeys)
	}
	got, err := obj.Get(p, "payload")
	if err != nil {
		return err
	}
	if b, _ := got.Bytes(); string(b) != string(payload) {
		return fmt.Errorf("%w: %s payload changed in transit", errOutput, name)
	}
	return nil
}
