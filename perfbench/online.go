package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tightsched"
	"tightsched/internal/exp"
)

// onlineTrials is the number of trials of one online unit: 10 trials of
// the 12 policy combinations, 120 grid instances.
const onlineTrials = 10

// onlineBench is the PaperOnlineSweep shape (tiered platform, diurnal
// model, Poisson and trace arrivals × 3 admission × 2 preemption
// policies, the IE heuristic, a 100k horizon) with a binary grid
// journal.
type onlineBench struct {
	seed uint64
	dir  string
}

func newOnlineBench(seed uint64) workload { return &onlineBench{seed: seed} }

func (b *onlineBench) campaign(i, workers int, traced bool) exp.GridSweep {
	g := exp.PaperOnlineSweep()
	g.Trials = onlineTrials
	g.Seed = unitSeed(b.seed, i)
	g.Workers = workers
	if traced {
		g.Heuristic = tracedPrefix + g.Heuristic
		g.Model = tracedPrefix + g.Model
	}
	return g
}

func (b *onlineBench) setup(dir string, workers int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b.dir = dir
	// Warm the engine on one trial over a short horizon.
	g := b.campaign(0, workers, false)
	g.Trials, g.Horizon = 1, 20_000
	_, err := b.runOne(g, filepath.Join(dir, "warmup.tsbl"))
	return err
}

func (b *onlineBench) close() {}

func (b *onlineBench) runOne(g exp.GridSweep, path string) (*exp.Result, error) {
	j, err := exp.CreateGridJournalFormat(path, &g, exp.FormatBinary)
	if err != nil {
		return nil, err
	}
	res, err := tightsched.NewSession().RunOnline(context.Background(), g,
		tightsched.WithOnlineJournal(j), tightsched.WithWorkers(g.Workers))
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return res, err
}

func (b *onlineBench) measure(p *pass) passResult {
	var apps, preempted, missed, journalBytes int64
	r := runUnits("online-table4", p, func(i, root int) unitOutcome {
		u, res := b.unit(p, i, root, &journalBytes)
		if res != nil {
			for _, in := range res.Grid.Instances {
				apps += int64(in.Apps)
				preempted += int64(in.Preempted)
				missed += int64(in.Missed)
			}
		}
		return u
	})
	r.figures = append(r.figures, figure{"grid_instances_per_s", "1/s", float64(r.ops) / r.timed.Seconds(),
		fmt.Sprintf("%d instances over %.6g s", r.ops, r.timed.Seconds())})
	r.setLayer("grid.apps", float64(apps))
	r.setLayer("grid.preemptions", float64(preempted))
	r.setLayer("grid.deadline_misses", float64(missed))
	r.setLayer("exp.journal_bytes", float64(journalBytes))
	return r
}

// unit runs online campaign i, renders its Table IV, and checks it
// against the table replayed from the unit's own grid journal (and, at
// the pinned seed, against the pinned digest). It adds the journal size
// to the total and returns the live result when the campaign completed.
func (b *onlineBench) unit(p *pass, i, root int, journalBytes *int64) (unitOutcome, *exp.Result) {
	traced := p.rec != nil
	g := b.campaign(i, p.workers, traced)
	u := unitOutcome{ops: int64(g.InstanceCount())}
	path := filepath.Join(b.dir, fmt.Sprintf("grid-%d.tsbl", i))
	defer os.Remove(path)

	t0 := time.Now()
	span := p.start("sim.campaign", root, i)
	res, err := b.runOne(g, path)
	p.end(span)
	p.flushLeaves(span, i)
	if err != nil {
		u.timed, u.err = time.Since(t0), err
		return u, nil
	}
	untraceGrid(res)
	span = p.start("exp.render", root, i)
	live, err := exp.RenderTableArtifact(res, 4)
	p.end(span)
	u.timed = time.Since(t0)
	if err != nil {
		u.err = err
		return u, res
	}
	var lines strings.Builder
	for _, in := range res.Grid.Instances {
		fmt.Fprintf(&lines, "%+v\n", in)
	}
	u.output = sha256Hex(live + lines.String())
	if st, err := os.Stat(path); err == nil {
		*journalBytes += st.Size()
	}

	span = p.start("exp.replay", root, i)
	replayed, err := exp.AggregateGridJournal(path)
	p.end(span)
	if err != nil {
		u.err = err
		return u, res
	}
	untraceGrid(replayed)
	art, err := exp.RenderTableArtifact(replayed, 4)
	switch {
	case err != nil:
		u.err = err
	case art != live:
		u.err = fmt.Errorf("live Table IV differs from the journal replay")
	case !traced:
		u.err = checkPinned("online-table4", b.seed, i, live)
	}
	return u, res
}

// untraceGrid maps a traced grid campaign's wrapper heuristic and model
// names back to the real ones (the Table IV title prints both).
func untraceGrid(res *exp.Result) {
	if res.Grid == nil {
		return
	}
	res.Grid.Sweep.Heuristic = strings.TrimPrefix(res.Grid.Sweep.Heuristic, tracedPrefix)
	res.Grid.Sweep.Model = strings.TrimPrefix(res.Grid.Sweep.Model, tracedPrefix)
}
