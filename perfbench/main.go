// Command perfbench is the repository benchmark. It builds a two-site HADAS
// topology (alpha and beta, each serving on loopback TCP, alpha linked to
// beta) in one process, drives it with two closed-loop clients for a fixed
// time on one Go P, checks every output, and prints its metrics, the last
// line as one JSON object.
//
//	perfbench --workload interop|agents --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the workload untraced and then traced, and reports the per-layer metrics
// from the traced phase; README.md maps each to the end-to-end metric it
// should move. The traced run also writes a span dump and a CPU profile
// under <workdir>/runs/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type options struct {
	workload workload
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string
	scale    scale
	warmup   time.Duration
	setups   int // set-ups timed for setup_s; the last one is measured
}

// setups is how many times an untraced run builds its topology; setup_s
// is their median, which the first build's cold caches do not move.
const setups = 9

// maxWarmup caps a warm-up that repeats until the workload says its state
// is steady (topo.warming).
const maxWarmup = 30 * time.Second

// maxTraced caps the traced phase: spans and captured payloads stay in
// memory, and the per-layer medians need no more.
const maxTraced = 5 * time.Second

// procs is the benchmark's GOMAXPROCS. On one P the clients, both sites
// and their connections hand off to each other inside one OS thread, so an
// op costs its own work. With a P per core, each hand-off wakes a thread on
// another vCPU, and on a shared host the hypervisor's scheduling of those
// vCPUs set ops_per_s and the tail from one run to the next.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: interop or agents")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 50, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for run artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, workdir: *workdir, scale: fullScale, warmup: time.Second, setups: setups}
	for _, w := range workloads {
		if w.name == *name {
			opt.workload = w
		}
	}
	if opt.workload.setup == nil || opt.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if opt.trace {
		opt.setups = 1
	}
	res, err := bench(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	correct           bool
	attempted, failed int64
	metrics           []metric
	notes             []string
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) json() (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	return string(b), err
}

// phase is what the clients did in one timed stretch.
type phase struct {
	ops, failed int64
	wall        time.Duration
	cost        procDelta // whole phase
	peakRSS     float64   // MB, high-water mark since the phase began
	windows     []window
}

// window is one tick of a measured phase.
type window struct {
	lat  *hist // ops that completed in the window, both clients
	cost procDelta
}

// tick is the window length of a measured phase. End-to-end figures are
// medians over windows (latency: over chunks of windows holding at least
// chunkOps ops), so a burst of load from outside the benchmark moves a
// few windows, not the figure.
const (
	tick     = time.Second
	chunkOps = 1000
)

// recorder holds each client's latency histograms, one per window. It is
// built, and its memory touched, before the phase it records, so the
// phase's peak RSS does not grow with the number of ops it completes.
type recorder [][]hist

// newRecorder makes a recorder for a phase of length d cut into windows of
// every; every == 0 makes one window.
func newRecorder(d, every time.Duration) recorder {
	nwin := 1
	if every > 0 {
		nwin = max(1, int((d+every/2)/every))
	}
	rec := make(recorder, clients)
	for i := range rec {
		rec[i] = make([]hist, nwin)
		clear(rec[i]) // fault the pages in now
	}
	return rec
}

// runPhase drives the clients closed-loop for d, recording into rec: each
// client sends its next op only once the previous one returned. Ops in
// flight when d ends finish and count. With every > 0 the phase is cut
// into windows of that length, the last one running to the end.
func runPhase(t *topo, cls []*client, rec recorder, d, every time.Duration, tr *tracer) phase {
	var stop atomic.Bool
	var wg sync.WaitGroup
	nwin := len(rec[0])
	failed := make([]int64, len(cls))
	var logged atomic.Int32
	start := time.Now()
	marks := []procSample{sampleProc()}
	for i, c := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			traced := tr.active()
			for !stop.Load() {
				var ts int64
				if traced {
					ts = tr.now()
				}
				t0 := time.Now()
				key, err := t.op(c)
				end := time.Now()
				k := 0
				if every > 0 {
					k = min(int(end.Sub(start)/every), nwin-1)
				}
				rec[i][k].add(float64(end.Sub(t0)) / 1e3)
				if err != nil {
					failed[i]++
					if logged.Add(1) <= 5 {
						fmt.Fprintf(os.Stderr, "perfbench: client %d: %v\n", c.idx, err)
					}
				}
				if traced {
					tr.add(span{kind: kindOp, failed: err != nil, hasKey: true, key: key,
						start: ts, end: tr.now(), n: c.idx})
				}
			}
		}()
	}
	for k := 1; k < nwin; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * every)))
		marks = append(marks, sampleProc())
	}
	time.Sleep(time.Until(start.Add(d)))
	stop.Store(true)
	wg.Wait()
	end := sampleProc()
	marks = append(marks, end)
	out := phase{wall: end.at.Sub(start), cost: marks[0].to(end), peakRSS: peakRSSMB()}
	out.windows = make([]window, nwin)
	for k := range out.windows {
		for i := 1; i < len(cls); i++ {
			rec[0][k].merge(&rec[i][k])
		}
		out.windows[k] = window{lat: &rec[0][k], cost: marks[k].to(marks[k+1])}
		out.ops += int64(rec[0][k].n)
	}
	for _, f := range failed {
		out.failed += f
	}
	return out
}

// endToEnd reports a measured phase's figures as medians over its windows.
func endToEnd(res *result, p phase) {
	var rate, cpu, allocs, p50, tail []float64
	var chunks []*hist
	fresh := true
	for _, w := range p.windows {
		n := float64(w.lat.n)
		if n == 0 {
			continue
		}
		rate = append(rate, n/w.cost.wall.Seconds())
		cpu = append(cpu, float64(w.cost.user+w.cost.sys)/1e3/n)
		allocs = append(allocs, float64(w.cost.mallocs)/n)
		if fresh {
			chunks = append(chunks, new(hist))
		}
		last := chunks[len(chunks)-1]
		last.merge(w.lat)
		fresh = last.n >= chunkOps
	}
	if k := len(chunks); k > 1 && chunks[k-1].n < chunkOps {
		// Too few for a tail of their own: fold them into the chunk before.
		chunks[k-2].merge(chunks[k-1])
		chunks = chunks[:k-1]
	}
	for i, c := range chunks {
		s := c.summary(90)
		p50 = append(p50, s.P50)
		tail = append(tail, s.Tail)
		hi := c.summary(99)
		res.note("latency chunk %d: %d ops, p50 %.1f µs, p%.0f %.1f µs, p%.2f %.1f µs",
			i+1, s.N, s.P50, s.TailPct, s.Tail, hi.TailPct, hi.Tail)
	}
	res.note("%d windows of %v: ops/s %.0f", len(p.windows), tick, rate)
	res.add("ops_per_s", "1/s", median(rate))
	res.add("op_p50_us", "us", median(p50))
	res.add("op_p90_us", "us", median(tail))
	res.add("cpu_us_per_op", "us", median(cpu))
	res.add("allocs_per_op", "count", median(allocs))
}

func newClients(seed int64) []*client {
	cls := make([]*client, clients)
	for i := range cls {
		cls[i] = &client{idx: i, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(i)*7_919 + 1))}
	}
	return cls
}

func bench(opt options) (*result, error) {
	e := &env{seed: opt.seed, scale: opt.scale}
	if opt.trace {
		e.tr = newTracer()
	}
	var t *topo
	setupTimes := make([]float64, 0, opt.setups)
	for i := 0; i < opt.setups; i++ {
		start := time.Now()
		var err error
		if t, err = opt.workload.setup(e); err != nil {
			return nil, fmt.Errorf("%s setup: %w", opt.workload.name, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < opt.setups-1 {
			t.close()
			runtime.GC() // the next build must not find this one's garbage
		}
	}
	defer t.close()

	res := &result{correct: true}
	tally := func(p phase) {
		res.attempted += p.ops
		res.failed += p.failed
	}
	cls := newClients(opt.seed)
	for start := time.Now(); ; {
		tally(runPhase(t, cls, newRecorder(opt.warmup, 0), opt.warmup, 0, nil))
		if t.warming == nil || !t.warming() {
			break
		}
		if time.Since(start) > maxWarmup {
			return nil, fmt.Errorf("%s: no steady state after %v of warm-up", opt.workload.name, maxWarmup)
		}
	}

	var art *artifacts
	if opt.trace {
		var err error
		if art, err = newArtifacts(opt); err != nil {
			return nil, err
		}
		if err := art.startProfile(); err != nil {
			return nil, err
		}
	}
	rec := newRecorder(opt.seconds, tick)
	runtime.GC()
	resetPeakRSS()
	plain := runPhase(t, cls, rec, opt.seconds, tick, nil)
	tally(plain)
	if art != nil {
		art.stopProfile()
	}

	var traced phase
	var localNS float64
	if opt.trace {
		runtime.GC()
		d := min(opt.seconds, maxTraced)
		e.tr.on.Store(true)
		traced = runPhase(t, cls, newRecorder(d, 0), d, 0, e.tr)
		e.tr.on.Store(false)
		tally(traced)
		var err error
		if localNS, err = timeLocal(t.local); err != nil {
			return nil, fmt.Errorf("local invoke: %w", err)
		}
	}

	if check := t.check(); check != nil {
		res.correct = false
		res.note("output check failed: %v", check)
		if !errors.Is(check, errOutput) {
			return nil, check
		}
	}
	if res.failed > 0 {
		res.correct = false
	}
	res.note("workload %s seed %d: %d ops attempted, %d failed (failed_ratio %.6f)",
		opt.workload.name, opt.seed, res.attempted, res.failed, float64(res.failed)/float64(res.attempted))

	ops := float64(plain.ops)
	if ops == 0 {
		return nil, errors.New("no op completed in the measured phase")
	}
	if !opt.trace {
		endToEnd(res, plain)
		res.note("setup_s runs: %v", setupTimes)
		res.add("peak_rss_mb", "MB", plain.peakRSS)
		res.add("setup_s", "s", median(setupTimes))
		return res, nil
	}

	if traced.ops == 0 {
		return nil, errors.New("no op completed in the traced phase")
	}
	d := decompose(e.tr, t.keyOf)
	if d.mismatched > 0 {
		res.correct = false
		res.note("trace check failed: %d of %d ops have spans that do not add up to the op", d.mismatched, traced.ops)
	}
	res.note("trace: %d ops decomposed, parts sum to each op's duration; %d spans outside any op", len(d.ops), d.orphans)
	imageBytes := 0
	if t.imageBytes != nil {
		imageBytes = t.imageBytes()
	}
	perLayer(res, e.tr, d, plain, traced, localNS, imageBytes)
	if err := art.write(e.tr, res); err != nil {
		return nil, err
	}
	return res, nil
}

// timeLocal times warm calls of f and returns the median ns per call over
// several rounds.
func timeLocal(f func() error) (float64, error) {
	const rounds, per = 7, 20000
	for i := 0; i < 1000; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	ns := make([]float64, rounds)
	for r := range ns {
		start := time.Now()
		for i := 0; i < per; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		ns[r] = float64(time.Since(start).Nanoseconds()) / per
	}
	return median(ns), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	return summarize(s, 50).P50
}

// perLayer reports the per-layer metrics. Span figures come from the
// traced phase; process and runtime figures from the untraced phase, so
// tracing's own allocations do not count against the program.
func perLayer(res *result, tr *tracer, d decomposition, plain, traced phase, localNS float64, imageBytes int) {
	tops := float64(traced.ops)
	var calls, putSpans []float64
	var reqB, respB, callErrs, puts, putB, jPuts, jBytes float64
	for _, s := range tr.spans {
		switch s.kind {
		case kindCall:
			calls = append(calls, float64(s.dur())/1e3)
			reqB += float64(s.n)
			respB += float64(s.m)
			if s.failed {
				callErrs++
			}
		case kindPut:
			putSpans = append(putSpans, float64(s.dur())/1e3)
			puts += float64(s.m)
			putB += float64(s.n)
			if strings.HasPrefix(s.name, "_migration/") || strings.HasPrefix(s.name, "_arrival/") {
				jPuts++
				jBytes += float64(s.n)
			}
		}
	}
	call := summarize(calls, 99)
	put := summarize(putSpans, 99)
	res.note("transport calls: n=%d p50 %.1f µs p%.2f %.1f µs", call.N, call.P50, call.TailPct, call.Tail)
	res.note("store writes: n=%d p50 %.1f µs p%.2f %.1f µs", put.N, put.P50, put.TailPct, put.Tail)

	part := func(f func(p opParts) int64) float64 {
		xs := make([]float64, len(d.ops))
		for i, p := range d.ops {
			xs[i] = float64(f(p)) / 1e3
		}
		return median(xs)
	}
	res.add("transport.call_p50_us", "us", call.P50)
	res.add("transport.call_p99_us", "us", call.Tail)
	res.add("transport.calls_per_op", "count", float64(call.N)/tops)
	res.add("transport.req_bytes_per_op", "B", reqB/tops)
	res.add("transport.resp_bytes_per_op", "B", respB/tops)
	res.add("transport.errors_per_kop", "count", 1000*callErrs/tops)
	res.add("hadas.caller_self_us", "us", part(func(p opParts) int64 { return p.callerSelf }))
	res.add("hadas.request_leg_us", "us", part(func(p opParts) int64 { return p.requestLeg }))
	res.add("hadas.reply_leg_us", "us", part(func(p opParts) int64 { return p.replyLeg }))
	res.add("hadas.remote_self_us", "us", part(func(p opParts) int64 { return p.remoteSelf }))
	res.add("core.apply_us", "us", part(func(p opParts) int64 { return p.apply }))
	res.add("core.local_invoke_ns", "ns", localNS)
	res.add("migration.journal_puts_per_op", "count", jPuts/tops)
	res.add("migration.journal_bytes_per_op", "B", jBytes/tops)
	res.add("wire.image_bytes", "B", float64(imageBytes))
	enc, dec := wireTiming(tr)
	res.add("wire.encode_ns_per_msg", "ns", enc)
	res.add("wire.decode_ns_per_msg", "ns", dec)
	res.add("persist.put_p50_us", "us", put.P50)
	res.add("persist.put_p99_us", "us", put.Tail)
	res.add("persist.puts_per_op", "count", puts/tops)
	res.add("persist.put_bytes_per_op", "B", putB/tops)
	ops, cost := float64(plain.ops), plain.cost
	res.add("go.gc_cpu_us_per_op", "us", float64(cost.gcCPU)/1e3/ops)
	res.add("go.bytes_alloc_per_op", "B", float64(cost.allocBytes)/ops)
	res.add("proc.user_us_per_op", "us", float64(cost.user)/1e3/ops)
	res.add("proc.sys_us_per_op", "us", float64(cost.sys)/1e3/ops)
	plainRate := ops / plain.wall.Seconds()
	tracedRate := tops / traced.wall.Seconds()
	res.add("trace.overhead_pct", "%", 100*(plainRate-tracedRate)/plainRate)
}
