package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tightsched"
	"tightsched/internal/avail"
	"tightsched/internal/exp"
	"tightsched/internal/sched"
	"tightsched/internal/sim"
)

// pinnedDigests holds the SHA-256 of unit 0's artifact at the seed it
// names, per workload.
//
//go:embed digests.json
var pinnedDigestsJSON []byte

type pinnedDigests struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// checkPinned compares unit 0's artifact with the pinned digest when the
// benchmark runs at the pinned seed.
func checkPinned(workload string, seed uint64, unit int, artifact string) error {
	if unit != 0 {
		return nil
	}
	var p pinnedDigests
	if err := json.Unmarshal(pinnedDigestsJSON, &p); err != nil {
		return err
	}
	want, ok := p.Digests[workload]
	if !ok || p.Seed != seed {
		return nil
	}
	if got := sha256Hex(artifact); got != want {
		return fmt.Errorf("%s unit 0 artifact digest %s, pinned %s", workload, got, want)
	}
	return nil
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// cacheObserver sums the batched cells' cache counters.
type cacheObserver struct{ stats exp.CacheStats }

func (o *cacheObserver) OnInstanceDone(exp.InstanceDone) {}
func (o *cacheObserver) OnProgress(exp.Progress)         {}
func (o *cacheObserver) OnPointDone(ev exp.PointDone) {
	if ev.Cache != nil {
		o.stats.Add(*ev.Cache)
	}
}

// sweepBench is the Table I campaign shape (m = 5, ncom ∈ {5, 10, 20},
// wmin 1–10, the 17 paper heuristics, the paper's Markov model, cap
// 100k) on the batch core with a binary journal. One unit is one
// scenario × one trial of every point: 510 simulations.
type sweepBench struct {
	seed uint64
	dir  string
}

func newSweepBench(seed uint64) workload { return &sweepBench{seed: seed} }

func (b *sweepBench) campaign(i, workers int, traced bool) exp.Sweep {
	s := exp.QuickSweep(5)
	s.Scenarios, s.Trials = 1, 1
	s.Seed = unitSeed(b.seed, i)
	s.Advance = sim.AdvanceBatch
	s.Workers = workers
	if traced {
		s.Heuristics = tracedNames(sched.Names())
		s.Models = []avail.Model{&timedModel{name: avail.MarkovModel{}.Name(), inner: avail.MarkovModel{}}}
	}
	return s
}

// simulations counts a sweep's simulations: InstanceCount leaves out
// the heuristic dimension.
func simulations(s exp.Sweep) int64 {
	h := len(s.Heuristics)
	if h == 0 {
		h = len(sched.Names())
	}
	return int64(s.InstanceCount() * h)
}

func tracedNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = tracedPrefix + n
	}
	return out
}

func (b *sweepBench) setup(dir string, workers int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b.dir = dir
	// Warm the engine on one point of the campaign shape, under a
	// failure cap low enough that the warm-up costs about the same at
	// every seed.
	s := b.campaign(0, workers, false)
	s.Ncoms, s.Wmins, s.Cap = s.Ncoms[:1], s.Wmins[:1], 10_000
	_, err := b.runOne(s, filepath.Join(dir, "warmup.tsbl"), nil)
	return err
}

func (b *sweepBench) close() {}

// runOne runs a journaled campaign and returns its live result.
func (b *sweepBench) runOne(s exp.Sweep, path string, obs exp.Observer) (*exp.Result, error) {
	j, err := exp.CreateJournalFormat(path, s, exp.Shard{}, exp.FormatBinary)
	if err != nil {
		return nil, err
	}
	opts := []tightsched.Option{tightsched.WithJournal(j), tightsched.WithWorkers(s.Workers)}
	if obs != nil {
		opts = append(opts, tightsched.WithObserver(obs))
	}
	res, err := tightsched.NewSession().RunSweep(context.Background(), s, opts...)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return res, err
}

func (b *sweepBench) measure(p *pass) passResult {
	var cache exp.CacheStats
	var journalBytes int64
	r := runUnits("sweep-table1", p, func(i, root int) unitOutcome {
		return b.unit(p, i, root, &cache, &journalBytes)
	})
	r.figures = append(r.figures, figure{"sweep_instances_per_s", "1/s", float64(r.ops) / r.timed.Seconds(),
		fmt.Sprintf("%d instances over %.6g s", r.ops, r.timed.Seconds())},
		figure{"sweep_slots_per_s", "1/s", float64(r.work) / r.timed.Seconds(),
			fmt.Sprintf("%d simulated slots over %.6g s", r.work, r.timed.Seconds())})
	r.setLayer("sched.decision_hits", float64(cache.DecisionHits))
	r.setLayer("sched.decision_lookups", float64(cache.DecisionHits+cache.DecisionMisses))
	r.setLayer("analytic.memo_hits", float64(cache.MemoHits))
	r.setLayer("analytic.memo_lookups", float64(cache.MemoHits+cache.MemoMisses))
	r.setLayer("exp.journal_bytes", float64(journalBytes))
	return r
}

// unit runs campaign i, renders its Table I, and checks it against the
// table replayed from the unit's own journal (and, at the pinned seed,
// against the pinned digest). It adds the campaign's cache counters and
// journal size to the totals.
func (b *sweepBench) unit(p *pass, i, root int, cache *exp.CacheStats, journalBytes *int64) unitOutcome {
	traced := p.rec != nil
	s := b.campaign(i, p.workers, traced)
	u := unitOutcome{ops: simulations(s)}
	path := filepath.Join(b.dir, fmt.Sprintf("sweep-%d.tsbl", i))
	defer os.Remove(path)
	obs := &cacheObserver{}

	t0 := time.Now()
	span := p.start("sim.campaign", root, i)
	res, err := b.runOne(s, path, obs)
	p.end(span)
	p.flushLeaves(span, i)
	if err != nil {
		u.timed, u.err = time.Since(t0), err
		return u
	}
	if traced {
		res = untracedSweepResult(res, b.campaign(i, p.workers, false))
	}
	span = p.start("exp.render", root, i)
	live, err := exp.RenderTableArtifact(res, 1)
	p.end(span)
	u.timed = time.Since(t0)
	if err != nil {
		u.err = err
		return u
	}
	cache.Add(obs.stats)
	if st, err := os.Stat(path); err == nil {
		*journalBytes += st.Size()
	}
	u.output = sha256Hex(live + instancesText(res.Instances))
	for _, in := range res.Instances {
		u.work += in.Makespan
	}

	span = p.start("exp.replay", root, i)
	replayed, err := exp.AggregateJournal(path)
	p.end(span)
	switch {
	case err != nil:
		u.err = err
	case traced:
		// The traced journal names the wrapper heuristics, whose
		// table has no reference column; the traced pass is checked
		// against the untraced pass's outputs instead.
	default:
		var art string
		if art, u.err = exp.RenderTableArtifact(replayed, 1); u.err == nil && art != live {
			u.err = fmt.Errorf("live Table I differs from the journal replay")
		}
		if u.err == nil {
			u.err = checkPinned("sweep-table1", b.seed, i, live)
		}
	}
	return u
}

// untracedSweepResult maps a traced campaign's wrapper heuristic names
// back to the real ones, under the untraced campaign's sweep.
func untracedSweepResult(res *exp.Result, s exp.Sweep) *exp.Result {
	insts := make([]exp.InstanceResult, len(res.Instances))
	for k, in := range res.Instances {
		in.Heuristic = strings.TrimPrefix(in.Heuristic, tracedPrefix)
		insts[k] = in
	}
	return &exp.Result{Sweep: s, Instances: insts}
}

// instancesText renders instances one per line, for output comparison.
func instancesText(insts []exp.InstanceResult) string {
	var b strings.Builder
	for _, in := range insts {
		fmt.Fprintf(&b, "%s %d %d %d %d %s %d %t\n", in.Model, in.Point.Ncom, in.Point.Wmin, in.Point.Scenario,
			in.Trial, in.Heuristic, in.Makespan, in.Failed)
	}
	return b.String()
}
