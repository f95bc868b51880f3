package tightsched_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"tightsched"
	"tightsched/internal/app"
	"tightsched/internal/markov"
	"tightsched/internal/platform"
	"tightsched/internal/sched"
)

func TestFacadeRun(t *testing.T) {
	sc := tightsched.PaperScenario(4, 10, 1, 5)
	rec := &tightsched.Recorder{}
	res, err := tightsched.NewSession().Run(context.Background(), sc, "Y-IE",
		tightsched.WithSeed(2), tightsched.WithCap(100000), tightsched.WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed || res.Completed != 10 {
		t.Fatalf("run: %+v", res)
	}
	if rec.Len() == 0 {
		t.Fatal("no trace recorded")
	}
}

func TestFacadeHeuristics(t *testing.T) {
	paper := tightsched.PaperHeuristics()
	if len(paper) != 17 {
		t.Fatalf("%d paper heuristics", len(paper))
	}
	names := tightsched.Heuristics()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Heuristics() not sorted: %v", names)
	}
	registered := make(map[string]bool, len(names))
	for _, n := range names {
		registered[n] = true
	}
	for _, n := range paper {
		if !registered[n] {
			t.Fatalf("paper heuristic %q missing from registry listing %v", n, names)
		}
	}
	// The listings are defensive copies: scribbling on one must not leak
	// into the registry.
	names[0] = "SCRIBBLED"
	paper[0] = "SCRIBBLED"
	if tightsched.Heuristics()[0] == "SCRIBBLED" || tightsched.PaperHeuristics()[0] == "SCRIBBLED" {
		t.Fatal("heuristic name listing aliases registry state")
	}
}

func TestFacadeStates(t *testing.T) {
	if tightsched.Up != markov.Up || tightsched.Down != markov.Down || tightsched.Reclaimed != markov.Reclaimed {
		t.Fatal("state aliases broken")
	}
}

func TestFacadeCustomScenario(t *testing.T) {
	avail := tightsched.AvailabilityMatrix{
		{0.95, 0.03, 0.02},
		{0.5, 0.48, 0.02},
		{0.5, 0.25, 0.25},
	}
	procs := make([]tightsched.Processor, 6)
	for i := range procs {
		procs[i] = tightsched.Processor{Speed: 1 + i, Capacity: 4, Avail: avail}
	}
	sc := tightsched.Scenario{
		Platform: &tightsched.Platform{Procs: procs, Ncom: 3},
		App:      tightsched.Application{Tasks: 4, Tprog: 3, Tdata: 1, Iterations: 3},
	}
	res, err := tightsched.NewSession().Run(context.Background(), sc, "E-IAY", tightsched.WithSeed(1), tightsched.WithCap(100000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3 {
		t.Fatalf("completed %d", res.Completed)
	}
}

func TestFacadeEstimateAndCompare(t *testing.T) {
	sc := tightsched.PaperScenario(3, 10, 1, 8)
	est, err := tightsched.NewSession().Estimate(context.Background(), sc, []int{0, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if est.Pplus <= 0 || est.Pplus >= 1 {
		t.Fatalf("estimate: %+v", est)
	}
	sums, err := tightsched.NewSession().Compare(context.Background(), sc, []string{"IE", "Y-IE"}, 2,
		tightsched.WithSeed(3), tightsched.WithCap(50000))
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("summaries: %+v", sums)
	}
}

func TestFacadeSweep(t *testing.T) {
	sweep := tightsched.QuickSweep(5)
	sweep.Wmins = []int{1}
	sweep.Ncoms = []int{10}
	sweep.Scenarios = 1
	sweep.Trials = 1
	sweep.Heuristics = []string{"IE", "RANDOM"}
	sweep.Cap = 50000
	res, err := tightsched.NewSession().RunSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Table("IE")
	if err != nil {
		t.Fatal(err)
	}
	out := tightsched.FormatTable(rows)
	if !strings.Contains(out, "RANDOM") {
		t.Fatalf("table:\n%s", out)
	}
}

func TestFacadeDefaultCap(t *testing.T) {
	if tightsched.DefaultCap != 1_000_000 {
		t.Fatalf("default cap %d", tightsched.DefaultCap)
	}
}

func TestFacadeAvailabilityModels(t *testing.T) {
	names := tightsched.AvailabilityModels()
	if len(names) < 3 {
		t.Fatalf("model names %v", names)
	}
	for _, name := range names {
		m, err := tightsched.ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != name {
			t.Fatalf("ModelByName(%q).Name() = %q", name, m.Name())
		}
	}
	if _, err := tightsched.ModelByName("nope"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestFacadeNonMarkovRun drives a semi-Markov ground truth through the
// façade: WithModel selects the model, the heuristics believe its
// fitted matrices, and the run still completes.
func TestFacadeNonMarkovRun(t *testing.T) {
	sc := tightsched.PaperScenario(4, 10, 1, 5)
	model := tightsched.NewSemiMarkovModel(0.8)
	model.CalibrationSlots = 2_000
	res, err := tightsched.NewSession().Run(context.Background(), sc, "Y-IE",
		tightsched.WithSeed(2), tightsched.WithCap(200_000), tightsched.WithModel(model))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed || res.Completed != 10 {
		t.Fatalf("non-Markov run: %+v", res)
	}
	// The same seed under Markov ground truth is a different realization.
	ref, err := tightsched.NewSession().Run(context.Background(), sc, "Y-IE", tightsched.WithSeed(2), tightsched.WithCap(200_000))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Makespan == res.Makespan && ref.Restarts == res.Restarts {
		t.Fatalf("semi-Markov realization identical to Markov: %+v", res)
	}
}

// TestFacadeSweepNonMarkov is the acceptance path at façade level: a
// SemiMarkovModel campaign runs through RunSweep and renders via
// FormatTable.
func TestFacadeSweepNonMarkov(t *testing.T) {
	sweep := tightsched.QuickSweep(5)
	sweep.Wmins = []int{1}
	sweep.Ncoms = []int{10}
	sweep.Scenarios = 1
	sweep.Trials = 1
	sweep.Heuristics = []string{"IE", "RANDOM"}
	sweep.Cap = 50000
	model := tightsched.NewSemiMarkovModel(0.6)
	model.CalibrationSlots = 2_000
	sweep.Models = []tightsched.AvailabilityModel{model}
	res, err := tightsched.NewSession().RunSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Table("IE")
	if err != nil {
		t.Fatal(err)
	}
	out := tightsched.FormatTable(rows)
	if !strings.Contains(out, "RANDOM") {
		t.Fatalf("table:\n%s", out)
	}
	for _, inst := range res.Instances {
		if inst.Model != "semimarkov" {
			t.Fatalf("instance model %q", inst.Model)
		}
	}
}

// TestFacadeJournaledShardedSweep drives the campaign-execution surface
// end-to-end through the façade: shard a small campaign into two
// journaled jobs, merge the journals, and resume one journal standalone.
func TestFacadeJournaledShardedSweep(t *testing.T) {
	sweep := tightsched.QuickSweep(5)
	sweep.Wmins = []int{1, 2}
	sweep.Ncoms = []int{10}
	sweep.Scenarios = 1
	sweep.Trials = 1
	sweep.Heuristics = []string{"IE", "RANDOM"}
	sweep.Cap = 50000

	full, err := tightsched.NewSession().RunSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	paths := []string{dir + "/shard0.journal", dir + "/shard1.journal"}
	for i, path := range paths {
		shard, err := tightsched.ParseSweepShard(fmt.Sprintf("%d/2", i))
		if err != nil {
			t.Fatal(err)
		}
		j, err := tightsched.CreateSweepJournal(path, sweep, shard, tightsched.JournalJSONL)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tightsched.NewSession().RunSweep(context.Background(), sweep, tightsched.WithJournal(j), tightsched.WithShard(shard)); err != nil {
			t.Fatal(err)
		}
		j.Close()
	}

	merged, err := tightsched.MergeSweepJournals(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Instances) != len(full.Instances) {
		t.Fatalf("merged %d instances, want %d", len(merged.Instances), len(full.Instances))
	}
	for i := range merged.Instances {
		if merged.Instances[i] != full.Instances[i] {
			t.Fatalf("instance %d differs after façade shard+merge", i)
		}
	}

	// A complete shard journal resumes as pure replay.
	res, err := tightsched.NewSession().ResumeSweep(context.Background(), paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances)*2 != len(full.Instances) {
		t.Fatalf("resumed shard has %d instances, want %d", len(res.Instances), len(full.Instances)/2)
	}
}

func TestPaperScenarioShape(t *testing.T) {
	sc := tightsched.PaperScenario(5, 10, 3, 42)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if sc.Platform.Size() != 20 || sc.Platform.Ncom != 10 {
		t.Fatalf("platform: %d procs, ncom %d", sc.Platform.Size(), sc.Platform.Ncom)
	}
	if sc.App.Tasks != 5 || sc.App.Tprog != 15 || sc.App.Tdata != 3 || sc.App.Iterations != 10 {
		t.Fatalf("application: %+v", sc.App)
	}
}

func TestScenarioValidate(t *testing.T) {
	if (tightsched.Scenario{}).Validate() == nil {
		t.Fatal("empty scenario accepted")
	}
	sc := tightsched.PaperScenario(5, 10, 1, 1)
	sc.App.Tasks = 0
	if sc.Validate() == nil {
		t.Fatal("invalid app accepted")
	}
	tiny := tightsched.Scenario{
		Platform: platform.Homogeneous(1, 1, 1, 1, markov.Uniform(0.9)),
		App:      app.Application{Tasks: 5, Iterations: 1},
	}
	if tiny.Validate() == nil {
		t.Fatal("under-capacity scenario accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	sc := tightsched.PaperScenario(3, 10, 1, 7)
	rec := &tightsched.Recorder{}
	res, err := tightsched.NewSession().Run(context.Background(), sc, "Y-IE",
		tightsched.WithSeed(5), tightsched.WithCap(100000), tightsched.WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed || res.Completed != 10 {
		t.Fatalf("run: %+v", res)
	}
	if rec.Len() == 0 || int64(rec.Len()) != res.Makespan {
		t.Fatalf("trace length %d vs makespan %d", rec.Len(), res.Makespan)
	}
}

func TestRunRejectsInvalid(t *testing.T) {
	ctx := context.Background()
	session := tightsched.NewSession()
	if _, err := session.Run(ctx, tightsched.Scenario{}, "IE"); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	sc := tightsched.PaperScenario(3, 10, 1, 7)
	if _, err := session.Run(ctx, sc, "NOPE"); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
}

func TestHeuristicsList(t *testing.T) {
	if len(tightsched.PaperHeuristics()) != 17 {
		t.Fatalf("got %d heuristics", len(tightsched.PaperHeuristics()))
	}
}

func TestEstimate(t *testing.T) {
	sc := tightsched.PaperScenario(5, 10, 1, 21)
	est, err := tightsched.NewSession().Estimate(context.Background(), sc, []int{0, 1, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if est.Pplus <= 0 || est.Pplus >= 1 {
		t.Fatalf("Pplus = %v", est.Pplus)
	}
	if est.SuccessProb <= 0 || est.SuccessProb > est.Pplus {
		t.Fatalf("SuccessProb = %v", est.SuccessProb)
	}
	if est.ExpectedDuration < 5 {
		t.Fatalf("ExpectedDuration = %v below workload", est.ExpectedDuration)
	}
}

func TestEstimateValidation(t *testing.T) {
	ctx := context.Background()
	session := tightsched.NewSession()
	sc := tightsched.PaperScenario(5, 10, 1, 21)
	cases := []struct {
		workers []int
		w       int
	}{
		{nil, 5},
		{[]int{0}, 0},
		{[]int{99}, 5},
		{[]int{-1}, 5},
	}
	for i, c := range cases {
		if _, err := session.Estimate(ctx, sc, c.workers, c.w); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	if _, err := session.Estimate(ctx, tightsched.Scenario{}, []int{0}, 1); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

func TestRunWithCustomHeuristic(t *testing.T) {
	sc := tightsched.Scenario{
		Platform: platform.Homogeneous(3, 1, platform.UnboundedCapacity, 3, markov.AlwaysUp()),
		App:      app.Application{Tasks: 3, Tprog: 1, Tdata: 1, Iterations: 2},
	}
	res, err := tightsched.NewSession().Run(context.Background(), sc, "",
		tightsched.WithCustomHeuristic(&everythingOnAll{}), tightsched.WithCap(1000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed || res.Heuristic != "ALL" {
		t.Fatalf("custom run: %+v", res)
	}
}

// everythingOnAll enrolls every processor with one task.
type everythingOnAll struct{}

func (e *everythingOnAll) Name() string { return "ALL" }

func (e *everythingOnAll) Decide(v *sched.View) app.Assignment {
	if v.Current != nil {
		return v.Current
	}
	asg := make(app.Assignment, len(v.States))
	for q := range asg {
		if v.States[q] != markov.Up {
			return nil
		}
		asg[q] = 1
	}
	return asg
}
