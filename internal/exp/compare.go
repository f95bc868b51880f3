package exp

import (
	"context"
	"fmt"

	"tightsched/internal/sched"
	"tightsched/internal/sim"
	"tightsched/internal/stats"
)

// HeuristicSummary aggregates one heuristic's results over trials.
type HeuristicSummary struct {
	Heuristic string
	// Fails counts trials that hit the cap.
	Fails int
	// Makespan summarizes the makespans of succeeding trials.
	Makespan stats.Summary
	// MeanRestarts and MeanReconfigs average over all trials.
	MeanRestarts  float64
	MeanReconfigs float64
}

// compareJob is one (heuristic, trial) run of a comparison.
type compareJob struct {
	h, trial int
	name     string
}

// String names the job in pool errors.
func (j compareJob) String() string {
	return fmt.Sprintf("heuristic %s, trial %d", j.name, j.trial)
}

// Compare runs several heuristics (the paper's 17 when heuristics is
// empty) over the same trials availability realizations and summarizes
// each. base configures every run; its Seed is the base seed the
// per-trial seeds derive from (TrialStream), and its Heuristic,
// Custom and Recorder are ignored: a comparison runs named heuristics in
// parallel and has no single trace to capture. Runs execute on the
// campaign worker pool; results are deterministic. Cancellation is
// checked at every run boundary and inside each run at macro-step
// boundaries.
func Compare(ctx context.Context, base sim.Config, heuristics []string, trials int) ([]HeuristicSummary, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("exp: %d trials", trials)
	}
	if len(heuristics) == 0 {
		heuristics = sched.Names()
	}
	baseSeed := base.Seed
	base.Custom, base.Recorder = nil, nil

	jobs := make([]compareJob, 0, len(heuristics)*trials)
	for h, name := range heuristics {
		for tr := 0; tr < trials; tr++ {
			jobs = append(jobs, compareJob{h: h, trial: tr, name: name})
		}
	}
	type outcome struct {
		job compareJob
		res sim.Result
	}
	newWorker := func() func(context.Context, compareJob) (outcome, error) {
		return func(ctx context.Context, j compareJob) (outcome, error) {
			cfg := base
			cfg.Heuristic = j.name
			cfg.Seed = TrialStream(baseSeed, j.trial).Uint64()
			res, err := sim.RunContext(ctx, cfg)
			return outcome{j, res}, err
		}
	}
	results := make([]sim.Result, len(jobs))
	err := runPool(ctx, 0, jobs, newWorker, func(o outcome) error {
		results[o.job.h*trials+o.job.trial] = o.res
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]HeuristicSummary, len(heuristics))
	for h, name := range heuristics {
		var makespans []float64
		fails := 0
		var restarts, reconfigs float64
		for _, res := range results[h*trials : (h+1)*trials] {
			if res.Failed {
				fails++
			} else {
				makespans = append(makespans, float64(res.Makespan))
			}
			restarts += float64(res.Restarts)
			reconfigs += float64(res.Reconfigs)
		}
		out[h] = HeuristicSummary{
			Heuristic:     name,
			Fails:         fails,
			Makespan:      stats.Summarize(makespans),
			MeanRestarts:  restarts / float64(trials),
			MeanReconfigs: reconfigs / float64(trials),
		}
	}
	return out, nil
}
