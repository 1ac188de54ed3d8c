package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"repro/internal/wire"
)

// artifacts is one traced run's output directory,
// <workdir>/runs/<UTC timestamp>-<workload>-s<seed>/, holding the CPU
// profile of the untraced phase (cpu.pprof), every span (spans.csv.gz)
// and the printed metrics (summary.json).
type artifacts struct {
	dir  string
	prof *os.File
}

func newArtifacts(opt options) (*artifacts, error) {
	dir := filepath.Join(opt.workdir, "runs", fmt.Sprintf("%s-%s-s%d",
		time.Now().UTC().Format("20060102T150405.000"), opt.workload.name, opt.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &artifacts{dir: dir}, nil
}

func (a *artifacts) startProfile() error {
	f, err := os.Create(filepath.Join(a.dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	a.prof = f
	return nil
}

func (a *artifacts) stopProfile() {
	pprof.StopCPUProfile()
	if err := a.prof.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
	}
}

// write dumps the spans and the summary.
func (a *artifacts) write(tr *tracer, res *result) error {
	f, err := os.Create(filepath.Join(a.dir, "spans.csv.gz"))
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "kind,site,key,start_ns,end_ns,name,bytes,resp_bytes,failed")
	for _, s := range tr.spans {
		key := ""
		if s.hasKey {
			key = fmt.Sprint(s.key)
		}
		fmt.Fprintf(bw, "%s,%d,%s,%d,%d,%s,%d,%d,%t\n",
			kindNames[s.kind], s.site, key, s.start, s.end, s.name, s.n, s.m, s.failed)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	type entry struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Value float64 `json:"value"`
	}
	sum := struct {
		Correct bool     `json:"correct"`
		Notes   []string `json:"notes"`
		Metrics []entry  `json:"metrics"`
	}{Correct: res.correct, Notes: res.notes}
	for _, m := range res.metrics {
		sum.Metrics = append(sum.Metrics, entry{m.name, m.unit, m.value})
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	res.note("artifacts: %s", a.dir)
	return os.WriteFile(filepath.Join(a.dir, "summary.json"), b, 0o644)
}

// wireTiming re-runs the wire codec on payloads the traced phase carried:
// each is decoded, and the decoded value encoded again. It returns the
// median over passes of the mean ns per message.
func wireTiming(tr *tracer) (encNS, decNS float64) {
	var msgs [][]byte
	for _, s := range tr.spans {
		if len(msgs) >= wireSamples {
			break
		}
		if s.kind == kindCall {
			msgs = append(msgs, tr.request(s))
		}
	}
	msgs = append(msgs, tr.resps...)
	if len(msgs) == 0 {
		return 0, 0
	}
	const passes = 7
	enc, dec := make([]float64, passes), make([]float64, passes)
	for p := 0; p < passes; p++ {
		var e, d time.Duration
		n := 0
		for _, m := range msgs {
			t0 := time.Now()
			v, err := wire.DecodeValue(m)
			t1 := time.Now()
			if err != nil {
				continue
			}
			_ = wire.EncodeValue(v)
			e += time.Since(t1)
			d += t1.Sub(t0)
			n++
		}
		if n > 0 {
			enc[p], dec[p] = float64(e)/float64(n), float64(d)/float64(n)
		}
	}
	return median(enc), median(dec)
}
