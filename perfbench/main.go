// Command perfbench is the repository benchmark: four workloads that run
// the paper's campaigns through the public library and daemon API, check
// every output, and print end-to-end metrics (or, with -trace 1, the
// per-layer split from a separate traced pass). See README.md.
//
//	bash perfbench/run.sh --workload sweep-table1 --seed 20130522 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"tightsched/internal/sched"
)

// defaultSeed is the paper's conference date, the seed every campaign
// preset of the library uses.
const defaultSeed = 20130522

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 5

// pass configures one measured pass over a workload's units.
type pass struct {
	workers int
	// units, when positive, runs exactly that many units; otherwise
	// units start until `until` of wall time has elapsed.
	units int
	until time.Duration
	// rec is the span recorder of the traced pass; nil untraced.
	rec *Recorder
}

func (p *pass) more(i int, elapsed time.Duration) bool {
	if p.units > 0 {
		return i < p.units
	}
	return elapsed < p.until
}

// start opens a span when tracing; it returns 0 otherwise.
func (p *pass) start(name string, parent, run int) int {
	if p.rec == nil {
		return 0
	}
	return p.rec.Start(name, parent, run)
}

func (p *pass) end(id int) {
	if p.rec != nil && id != 0 {
		p.rec.End(id)
	}
}

// flushLeaves files the sched/avail leaf calls made since the last
// flush under the span parent.
func (p *pass) flushLeaves(parent, run int) {
	if t := active.Load(); p.rec != nil && t != nil {
		t.flush(p.rec, parent, run)
	}
}

// passResult is what a pass measured.
type passResult struct {
	units  int
	ops    int64         // operations attempted
	failed int64         // operations that errored or failed a check
	work   int64         // the throughput numerator (README.md)
	timed  time.Duration // summed wall of the timed parts
	wall   time.Duration // wall of the whole pass
	// latencies are per-unit (per-campaign for the daemon) timed walls.
	latencies []float64 // ms
	// rates are per-unit throughputs, work over timed wall (the daemon,
	// whose campaigns overlap, reports one rate for the whole pass).
	rates []float64
	// rss and rssPeak hold the mean and the largest sampled resident
	// set size of each unit (of the whole pass for the daemon, whose
	// campaigns overlap), in MB.
	rss, rssPeak []float64
	// outputs identify each unit's results; the traced pass must
	// reproduce the untraced pass's outputs exactly.
	outputs []string
	// figures are workload-specific end-to-end figures, reported in the
	// human-readable summary (a rate carries its base).
	figures []figure
	// layer holds per-layer metrics the workload measures itself.
	layer map[string]float64
}

type figure struct {
	name, unit string
	value      float64
	base       string
}

func (r *passResult) addUnit(ops, failed, work int64, timed time.Duration, output string) {
	r.units++
	r.ops += ops
	r.work += work
	r.failed += failed
	r.timed += timed
	r.latencies = append(r.latencies, ms(timed))
	r.rates = append(r.rates, float64(work)/timed.Seconds())
	r.outputs = append(r.outputs, output)
}

func (r *passResult) addRSS(mean, peak float64) {
	r.rss = append(r.rss, mean)
	r.rssPeak = append(r.rssPeak, peak)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// unitOutcome is what one sequential unit reports.
type unitOutcome struct {
	ops    int64         // operations attempted
	work   int64         // the throughput numerator; ops when zero
	timed  time.Duration // wall of the timed part
	output string        // identifies the unit's results
	err    error         // an error or a failed check fails every operation
}

// runUnits runs units one after another as p directs, each under a
// "bench.unit" root span, and samples each unit's resident set size.
func runUnits(name string, p *pass, unit func(i, root int) unitOutcome) passResult {
	var r passResult
	start := time.Now()
	for i := 0; p.more(i, time.Since(start)); i++ {
		// Each unit's memory counts from a collected heap, so that the
		// previous unit's garbage does not decide it.
		debug.FreeOSMemory()
		rss := startRSS()
		root := p.start("bench.unit", 0, i)
		out := unit(i, root)
		p.end(root)
		r.addRSS(rss.finish())
		failed := int64(0)
		if out.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s unit %d: %v\n", name, i, out.err)
			failed = out.ops
		}
		if out.work == 0 {
			out.work = out.ops
		}
		r.addUnit(out.ops, failed, out.work, out.timed, out.output)
	}
	r.wall = time.Since(start)
	return r
}

func (r *passResult) setLayer(name string, v float64) {
	if r.layer == nil {
		r.layer = map[string]float64{}
	}
	r.layer[name] = v
}

// workload is one benchmark workload. setup runs setupRepeats times,
// each into a fresh directory; the last prepared state is measured.
type workload interface {
	setup(dir string, workers int) error
	measure(p *pass) passResult
	// close releases what the last setup holds.
	close()
}

type workloadDef struct {
	name, why string
	make      func(seed uint64) workload
}

var workloads = []workloadDef{
	{"sweep-table1", "the paper's Table I campaign on the batch core: greedy builds, decision and memo sharing, sparse binary journal appends", newSweepBench},
	{"online-table4", "the online Table IV campaign: solo leap runs, diurnal walk, per-admission analytic builds and the grid loop; no decision cache", newOnlineBench},
	{"journal-ops", "synthesized records appended, resumed, replayed and exported: the exp journal layer alone, writes beside reads", newJournalBench},
	{"daemon-campaigns", "a closed loop of 2 clients submitting small campaigns to the in-process daemon: spec decode, SSE, artifact serving", newDaemonBench},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (sweep-table1, online-table4, journal-ops, daemon-campaigns)")
		seed    = flag.Uint64("seed", defaultSeed, "seed every generated input derives from")
		seconds = flag.Int("seconds", 25, "measured wall time per run")
		trace   = flag.Int("trace", 0, "1: report the per-layer split from a separate traced pass")
		workdir = flag.String("workdir", ".bench_build", "directory for scratch files and traces")
	)
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	out, err := run(def, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// result is the JSON object printed last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(def *workloadDef, seed uint64, seconds time.Duration, traced bool, workdir string) (*result, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	w := def.make(seed)
	defer w.close()
	workers := 2
	if traced {
		workers = 1
	}
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if k > 0 {
			w.close()
		}
		sdir := filepath.Join(dir, fmt.Sprintf("setup-%d", k))
		t0 := time.Now()
		if err := w.setup(sdir, workers); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if traced {
		return runTraced(def, w, seed, seconds, workdir)
	}

	res := w.measure(&pass{workers: workers, until: seconds})
	out := &result{Correct: res.failed == 0 && res.ops > 0, Attempted: res.ops, Failed: res.failed}
	values := map[string]float64{
		"throughput_per_s": median(res.rates),
		"setup_s":          median(setups),
	}
	out.Metrics = metricsFor(endToEnd, values)

	fmt.Printf("workload %s seed %d: %d units, %d operations, %d failed, error_ratio %.6g\n",
		def.name, seed, res.units, res.ops, res.failed, float64(res.failed)/float64(max(res.ops, 1)))
	fmt.Printf("setup_s %.6g s (median of %d set-ups: %v)\n", values["setup_s"], setupRepeats, setups)
	fmt.Printf("throughput_per_s %.6g 1/s (median of %d unit rates; overall %d over %.6g s of timed wall)\n",
		values["throughput_per_s"], len(res.rates), res.work, res.timed.Seconds())
	fmt.Printf("unit_latency_p50_ms %.6g ms (%d units)\n", median(res.latencies), len(res.latencies))
	if p, ok := tailPercentile(len(res.latencies)); ok {
		fmt.Printf("unit_latency_p%g_ms %.6g ms (%d units)\n", p, quantile(res.latencies, p/100), len(res.latencies))
	}
	if len(res.latencies) <= 50 {
		fmt.Printf("unit latencies ms: %.6g\n", res.latencies)
		fmt.Printf("unit mean rss MB: %.6g\n", res.rss)
	}
	fmt.Printf("rss_mb %.6g MB (median of %d unit means, sampled every %v)\n", median(res.rss), len(res.rss), rssInterval)
	fmt.Printf("peak_rss_mb %.6g MB (median of %d sampled unit peaks; largest %.6g MB)\n",
		median(res.rssPeak), len(res.rssPeak), slices.Max(res.rssPeak))
	for _, f := range res.figures {
		fmt.Printf("%s %.6g %s (%s)\n", f.name, f.value, f.unit, f.base)
	}
	return out, nil
}

// runTraced makes an untraced and a traced pass over the same units,
// both with one worker, checks that their outputs agree, and reports the
// per-layer split of the traced pass.
func runTraced(def *workloadDef, w workload, seed uint64, seconds time.Duration, workdir string) (*result, error) {
	if err := registerTraced(sched.Names(), []string{"diurnal"}); err != nil {
		return nil, err
	}
	plain := w.measure(&pass{workers: 1, until: seconds / 2})

	t := &tracer{}
	active.Store(t)
	rec := NewRecorder()
	traced := w.measure(&pass{workers: 1, units: plain.units, rec: rec})
	active.Store(nil)

	failed := plain.failed + traced.failed
	mismatched := 0
	for i := range plain.outputs {
		if i >= len(traced.outputs) || traced.outputs[i] != plain.outputs[i] {
			mismatched++
		}
	}
	if mismatched > 0 || len(traced.outputs) != len(plain.outputs) {
		fmt.Fprintf(os.Stderr, "perfbench: traced pass outputs differ from the untraced pass on %d of %d units\n",
			mismatched, len(plain.outputs))
		failed += traced.ops
	}

	spans := rec.Spans()
	tot := totalsByName(spans)
	values := map[string]float64{
		"sched.decide_calls": float64(tot.count["sched.decide"]),
		"sched.decide_s":     tot.dur["sched.decide"].Seconds(),
		"avail.walk_calls":   float64(tot.count["avail.walk"]),
		"avail.walk_s":       tot.dur["avail.walk"].Seconds(),
		"avail.slots_walked": float64(t.slots.Load()),
		"avail.fit_calls":    float64(tot.count["avail.fit"]),
		"avail.fit_s":        tot.dur["avail.fit"].Seconds(),
		"sim.runs":           float64(t.runs.Load()),
		"sim.self_s":         tot.self["sim.campaign"].Seconds(),
		"exp.append_s":       tot.dur["exp.append"].Seconds(),
		"exp.resume_s":       tot.dur["exp.resume"].Seconds(),
		"exp.replay_s":       tot.dur["exp.replay"].Seconds(),
		"exp.export_s":       tot.dur["exp.export"].Seconds(),
		"exp.render_s":       tot.dur["exp.render"].Seconds(),
		"trace.wall_s":       traced.wall.Seconds(),
		"trace.overhead_s":   (traced.wall - plain.wall).Seconds(),
	}
	for k, v := range traced.layer {
		values[k] = v
	}
	// Memory of the untraced pass: the span recorder holds memory of its
	// own.
	values["process.rss_mb"] = median(plain.rss)
	values["process.peak_rss_mb"] = median(plain.rssPeak)
	out := &result{
		Correct:   failed == 0 && plain.ops > 0,
		Attempted: plain.ops + traced.ops,
		Failed:    failed,
		Metrics:   metricsFor(perLayer, values),
	}

	if err := os.MkdirAll(filepath.Join(workdir, "traces"), 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(workdir, "traces", fmt.Sprintf("%s-seed%d.json", def.name, seed))
	if err := rec.Write(tracePath); err != nil {
		return nil, err
	}

	fmt.Printf("workload %s seed %d traced: %d units, untraced wall %.6g s, traced wall %.6g s, overhead %.6g s; %d spans in %s\n",
		def.name, seed, plain.units, plain.wall.Seconds(), traced.wall.Seconds(),
		(traced.wall - plain.wall).Seconds(), len(spans), tracePath)
	printShares(tot, traced.wall)
	for _, m := range perLayer {
		fmt.Printf("%s %.6g %s\n", m.Name, out.Metrics[m.Name].Value, m.Unit)
	}
	return out, nil
}

// printShares prints each layer's self time as a share of the traced
// pass's wall time.
func printShares(tot layerTotals, wall time.Duration) {
	names := make([]string, 0, len(tot.self))
	for n := range tot.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return tot.self[names[i]] > tot.self[names[j]] })
	for _, n := range names {
		fmt.Printf("share %-14s %6.2f%% self %.6g s over %d calls\n",
			n, 100*tot.self[n].Seconds()/wall.Seconds(), tot.self[n].Seconds(), tot.count[n])
	}
}

// metricsFor selects the catalog's metrics from values, zero where a
// layer is not exercised by the workload or a pass measured nothing (a
// median of no samples, a rate over no time), which JSON cannot carry.
func metricsFor(defs []metricDef, values map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return m
}
