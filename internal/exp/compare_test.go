package exp

import (
	"context"
	"testing"

	"tightsched/internal/app"
	"tightsched/internal/platform"
	"tightsched/internal/rng"
	"tightsched/internal/sim"
)

// paperConfig is the Section VII.A scenario of m tasks (the façade's
// PaperScenario) as a simulation configuration.
func paperConfig(m, ncom, wmin int, seed uint64) sim.Config {
	return sim.Config{
		Platform: platform.GeneratePaper(platform.DefaultPaperConfig(wmin, ncom), rng.New(seed)),
		App:      app.Application{Tasks: m, Tprog: 5 * wmin, Tdata: wmin, Iterations: 10},
	}
}

func TestCompare(t *testing.T) {
	cfg := paperConfig(3, 10, 1, 9)
	cfg.Seed, cfg.Cap = 11, 100000
	sums, err := Compare(context.Background(), cfg, []string{"IE", "RANDOM"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 || sums[0].Heuristic != "IE" || sums[1].Heuristic != "RANDOM" {
		t.Fatalf("summaries: %+v", sums)
	}
	for _, s := range sums {
		if s.Fails+s.Makespan.N != 3 {
			t.Fatalf("%s: fails %d + makespans %d != trials", s.Heuristic, s.Fails, s.Makespan.N)
		}
	}
	// Deterministic.
	again, err := Compare(context.Background(), cfg, []string{"IE", "RANDOM"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sums {
		if sums[i].Makespan.Mean != again[i].Makespan.Mean {
			t.Fatal("Compare not deterministic")
		}
	}
}

func TestCompareValidation(t *testing.T) {
	ctx := context.Background()
	cfg := paperConfig(3, 10, 1, 9)
	if _, err := Compare(ctx, cfg, nil, 0); err == nil {
		t.Fatal("0 trials accepted")
	}
	if _, err := Compare(ctx, sim.Config{}, nil, 1); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	cfg.Cap = 1000
	if _, err := Compare(ctx, cfg, []string{"NOPE"}, 1); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
}

func TestCompareDefaultsToAllHeuristics(t *testing.T) {
	cfg := paperConfig(2, 20, 1, 13)
	cfg.Seed, cfg.Cap = 3, 50000
	sums, err := Compare(context.Background(), cfg, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 17 {
		t.Fatalf("got %d summaries, want 17", len(sums))
	}
}
