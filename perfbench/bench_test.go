package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/hadas"
	"repro/internal/value"
	"repro/internal/wire"
)

var testScale = scale{residents: 300, imports: 16, payload: 256}

func testEnv(t *testing.T, traced bool) *env {
	e := &env{seed: 3, scale: testScale}
	if traced {
		e.tr = newTracer()
		e.tr.on.Store(true)
	}
	return e
}

func build(t *testing.T, setup func(*env) (*topo, error), e *env) *topo {
	t.Helper()
	top, err := setup(e)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(top.close)
	return top
}

func TestSummarizeNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n                  int
		want               float64
		p50, tail, tailPct float64
	}{
		{1000, 99, 500, 990, 99}, // exactly 10 samples above the p99
		{2000, 99, 1000, 1980, 99},
		{500, 99, 250, 490, 98},    // p99 unsupported: highest with 10 above
		{11, 99, 6, 1, 100.0 / 11}, // one sample below the 10
		{10, 99, 5, 1, 0},          // nothing has 10 above: the minimum
		{1, 99, 1, 1, 0},
	} {
		s := summarize(seq(tc.n), tc.want)
		if s.N != tc.n || s.P50 != tc.p50 || s.Tail != tc.tail || s.TailPct != tc.tailPct {
			t.Errorf("n=%d: got %+v, want p50 %v tail p%v=%v", tc.n, s, tc.p50, tc.tailPct, tc.tail)
		}
	}
	if s := summarize(nil, 99); s != (summary{}) {
		t.Errorf("empty: %+v", s)
	}
}

// TestHistMatchesNearestRank checks the histogram summary against the
// exact one: same sample count and tail percentile, each value within one
// bucket (1/128 of the value) of the exact nearest-rank sample.
func TestHistMatchesNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		xs   []float64
	}{
		{"one", []float64{57.3}},
		{"flat", []float64{80, 80, 80, 80, 80, 80, 80, 80, 80, 80, 80, 80}},
		{"sequence", func() []float64 {
			xs := make([]float64, 1000)
			for i := range xs {
				xs[i] = float64(i + 1)
			}
			return xs
		}()},
		{"lognormal", func() []float64 {
			xs := make([]float64, 5000)
			for i := range xs {
				xs[i] = 60 * math.Exp(rng.NormFloat64()) // 20 µs to several ms
			}
			return xs
		}()},
		{"clamped", []float64{0.2, 0.5, 3e9}}, // below 1 µs and above the top bucket
	} {
		var h hist
		for _, x := range tc.xs {
			h.add(x)
		}
		for _, want := range []float64{90, 99} {
			got, exact := h.summary(want), summarize(append([]float64(nil), tc.xs...), want)
			if got.N != exact.N || got.TailPct != exact.TailPct {
				t.Errorf("%s p%v: %+v, exact %+v", tc.name, want, got, exact)
			}
			for _, v := range [][2]float64{{got.P50, exact.P50}, {got.Tail, exact.Tail}} {
				if tc.name == "clamped" {
					continue // only the ranks are meaningful off the scale
				}
				if math.Abs(v[0]-v[1]) > v[1]/histSub {
					t.Errorf("%s p%v: %v, exact %v", tc.name, want, v[0], v[1])
				}
			}
		}
	}
	// Two halves merged give the whole.
	var a, b, whole hist
	for i := 1; i <= 100; i++ {
		whole.add(float64(i))
		if i%2 == 0 {
			a.add(float64(i))
		} else {
			b.add(float64(i))
		}
	}
	a.merge(&b)
	if a != whole {
		t.Error("merged halves differ from the whole")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the command must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsReportEveryMetric runs each workload briefly, untraced and
// traced, and checks it passes its output checks and prints exactly the
// metrics BENCHMARK.json lists, with their units.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	spec := readSpec(t)
	ours := map[string]bool{}
	for _, w := range workloads {
		ours[w.name] = true
	}
	for _, w := range spec.Workloads {
		if !ours[w.Name] {
			t.Fatalf("BENCHMARK.json workload %q is not one the command runs", w.Name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opt := options{workload: w, seed: 5, seconds: 300 * time.Millisecond, trace: traced,
				workdir: t.TempDir(), scale: testScale, warmup: 100 * time.Millisecond, setups: 2}
			want := spec.EndToEnd
			if traced {
				opt.setups = 1
				want = spec.PerLayer
			}
			res, err := bench(opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v %d/%d failed; notes %v", w.name, traced,
					res.correct, res.failed, res.attempted, res.notes)
			}
			got := map[string]string{}
			for _, m := range res.metrics {
				got[m.name] = m.unit
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(got), len(want))
			}
			for _, m := range want {
				if u, ok := got[m.Name]; !ok || u != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.name, traced, m.Name, u, m.Unit)
				}
			}
			line, err := res.json()
			if err != nil {
				t.Fatal(err)
			}
			var out map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatal(err)
			}
			var keys []string
			for k := range out {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
				t.Errorf("result keys %v", keys)
			}
			if traced {
				runs, _ := filepath.Glob(filepath.Join(opt.workdir, "runs", "*", "*"))
				if len(runs) != 3 {
					t.Errorf("%s: artifacts %v, want cpu.pprof, spans.csv.gz, summary.json", w.name, runs)
				}
			}
		}
	}
}

// TestWrappedSitesMatchUnwrapped shows the timing wrappers change no
// result: the same calls through wrapped and unwrapped topologies return
// the same values, fan-out still takes the pipelined batch path, and agent
// journeys journal through the timing store to the same end state.
func TestWrappedSitesMatchUnwrapped(t *testing.T) {
	results := func(traced bool) ([]string, *tracer) {
		e := testEnv(t, traced)
		in := build(t, setupInterop, e)
		var out []string
		caller := in.alpha.IOO().Principal()
		var fan []hadas.FanOutCall
		for i, name := range in.alpha.Ambassadors() {
			if !strings.HasPrefix(name, "apo-") {
				continue // the peer IOO's Ambassador
			}
			amb, err := in.alpha.ResolveObject(name)
			if err != nil {
				t.Fatal(err)
			}
			v, err := amb.Invoke(caller, "work", value.NewInt(int64(i)))
			out = append(out, name+"="+v.String()+errString(err))
			fan = append(fan, hadas.FanOutCall{Peer: "beta", Caller: caller,
				Target: strings.TrimSuffix(name, "@beta"), Method: "work", Args: []value.Value{value.NewInt(int64(i))}})
		}
		for _, r := range in.alpha.InvokeFanOut(fan) {
			out = append(out, "fan="+r.Result.String()+errString(r.Err))
		}

		ag := build(t, setupAgents, e)
		for i := 0; i < 3; i++ {
			v, err := ag.alpha.DispatchAgent(agentName(0), "beta")
			out = append(out, "journey="+v.String()+errString(err))
		}
		agent, err := ag.alpha.APO(agentName(0))
		if err != nil {
			t.Fatal(err)
		}
		hops, err := agent.Get(ag.alpha.IOO().Principal(), "hops")
		out = append(out, "hops="+hops.String()+errString(err))
		return out, e.tr
	}
	plain, _ := results(false)
	wrapped, tr := results(true)
	if !reflect.DeepEqual(plain, wrapped) {
		t.Fatalf("wrapped sites differ:\nplain   %v\nwrapped %v", plain, wrapped)
	}
	// The fan-out batch left through CallMulti in one round: its call
	// spans share one start and one end.
	batch := map[[2]int64]int{}
	puts := 0
	for _, s := range tr.spans {
		switch s.kind {
		case kindCall:
			batch[[2]int64{s.start, s.end}]++
		case kindPut:
			puts++
		}
	}
	largest := 0
	for _, n := range batch {
		largest = max(largest, n)
	}
	if largest != testScale.imports {
		t.Errorf("largest call batch %d, want the %d-call fan-out in one round", largest, testScale.imports)
	}
	if puts == 0 {
		t.Error("no store write went through the timing backend")
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return " err " + err.Error()
}

func TestInteropCheckFires(t *testing.T) {
	e := testEnv(t, false)
	e.echoDelta = 1
	top := build(t, setupInterop, e)
	d := 50 * time.Millisecond
	p := runPhase(top, newClients(e.seed), newRecorder(d, 0), d, 0, nil)
	if p.ops == 0 || p.failed != p.ops {
		t.Fatalf("wrong echoes: %d of %d ops failed, want all", p.failed, p.ops)
	}
}

func TestAgentsChecksFire(t *testing.T) {
	e := testEnv(t, false)
	top := build(t, setupAgents, e)
	d := 100 * time.Millisecond
	if p := runPhase(top, newClients(e.seed), newRecorder(d, 0), d, 0, nil); p.ops == 0 || p.failed != 0 {
		t.Fatalf("%d of %d ops failed", p.failed, p.ops)
	}
	if err := top.check(); err != nil {
		t.Fatal(err)
	}
	agent, err := top.alpha.APO(agentName(0))
	if err != nil {
		t.Fatal(err)
	}
	p := agent.Principal()
	sabotage := func(what, item string, bad value.Value) {
		t.Helper()
		good, err := agent.Get(p, item)
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.Set(p, item, bad); err != nil {
			t.Fatal(err)
		}
		if err := top.check(); !errors.Is(err, errOutput) {
			t.Errorf("%s: check returned %v", what, err)
		}
		if err := agent.Set(p, item, good); err != nil {
			t.Fatal(err)
		}
		if err := top.check(); err != nil {
			t.Fatalf("%s restored: %v", what, err)
		}
	}
	hops, _ := agent.Get(p, "hops")
	n, _ := hops.Int()
	sabotage("extra hop", "hops", value.NewInt(n+1))
	sabotage("payload", "payload", value.NewBytes([]byte("other")))

	dup := top.beta.NewAPOBuilder("Bouncer").MustBuild()
	if err := top.beta.AddAPO(agentName(0), dup); err != nil {
		t.Fatal(err)
	}
	if err := top.check(); !errors.Is(err, errOutput) {
		t.Errorf("second copy at beta: check returned %v", err)
	}
}

// TestTracePartsAddUp feeds the decomposition hand-made spans: a
// well-nested op splits into parts that sum to it, and a missing or
// misplaced span makes the op count as mismatched.
func TestTracePartsAddUp(t *testing.T) {
	req := wire.EncodeValue(value.NewMap(map[string]value.Value{
		"args": value.NewList([]value.Value{value.NewInt(5)}),
	}))
	mk := func(body span, withCall bool) decomposition {
		tr := newTracer()
		tr.add(span{kind: kindOp, hasKey: true, key: 5, start: 0, end: 100})
		if withCall {
			tr.call(0, "hadas.invoke", 10, 90, req, nil, nil)
		}
		tr.add(body)
		tr.add(span{kind: kindPut, start: 40, end: 50, name: "slot", m: 1}) // no op's part
		return decompose(tr, invokeKey)
	}
	body := span{kind: kindBody, hasKey: true, key: 5, start: 30, end: 60}
	d := mk(body, true)
	if d.mismatched != 0 || len(d.ops) != 1 {
		t.Fatalf("well-nested op: %+v", d)
	}
	got := d.ops[0]
	want := opParts{op: got.op, callerSelf: 20, remoteSelf: 50, requestLeg: 20, replyLeg: 30, apply: 30}
	if got != want || got.sum() != 100 {
		t.Errorf("parts %+v, want %+v", got, want)
	}
	late := body
	late.end = 95 // body outlives the call that carried it
	if d := mk(late, true); d.mismatched != 1 {
		t.Errorf("body outside its call: %+v", d)
	}
	if d := mk(body, false); d.mismatched != 1 {
		t.Errorf("op without its call: %+v", d)
	}
}
