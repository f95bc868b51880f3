package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"tightsched/internal/exp"
	"tightsched/internal/sched"
)

// journalScenarios × journalTrials × 30 points × 17 heuristics records
// make one journal-ops unit: 204,000 records.
const (
	journalScenarios = 10
	journalTrials    = 40
	journalFailRate  = 0.05
)

// journalBench synthesizes campaign records (no simulation) and carries
// them through the binary journal: Journal.Append, exp.ResumeWith with
// nothing left to run, exp.AggregateJournal plus render, and
// exp.ExportColumns.
type journalBench struct {
	seed uint64
	dir  string
}

func newJournalBench(seed uint64) workload { return &journalBench{seed: seed} }

func (b *journalBench) campaign(i, scenarios, trials int) exp.Sweep {
	s := exp.QuickSweep(5)
	s.Scenarios, s.Trials = scenarios, trials
	s.Seed = unitSeed(b.seed, i)
	return s
}

// records synthesizes one record per instance of s, in a seeded
// shuffled order like a multi-worker campaign's completion order.
func records(s exp.Sweep) []exp.InstanceResult {
	r := rand.New(rand.NewPCG(s.Seed, 0x6a6f75726e616c))
	insts := make([]exp.InstanceResult, 0, simulations(s))
	for _, c := range s.Coords() {
		for _, h := range sched.Names() {
			in := exp.InstanceResult{Point: c.Point, Trial: c.Trial, Model: c.Model, Heuristic: h}
			if r.Float64() < journalFailRate {
				in.Makespan, in.Failed = s.Cap, true
			} else {
				// Makespans scale with the point's slowest speed, like
				// the simulated ones, and spread over a decade.
				in.Makespan = int64(float64(40*s.Iterations*c.Point.Wmin) * (1 + 9*r.Float64()))
			}
			insts = append(insts, in)
		}
	}
	r.Shuffle(len(insts), func(a, b int) { insts[a], insts[b] = insts[b], insts[a] })
	return insts
}

func (b *journalBench) setup(dir string, workers int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b.dir = dir
	// One small cycle warms every phase.
	_, err := b.cycle(&pass{workers: workers}, b.campaign(0, 1, 2), 0, 0)
	return err
}

func (b *journalBench) close() {}

// phaseTimes are the timed phases of one cycle.
type phaseTimes struct {
	append, resume, replay, export time.Duration
	bytes                          int64
	output                         string
}

func (b *journalBench) measure(p *pass) passResult {
	var appendR, resumeR, replayR, exportR rate
	var journalBytes int64
	r := runUnits("journal-ops", p, func(i, root int) unitOutcome {
		s := b.campaign(i, journalScenarios, journalTrials)
		n := simulations(s)
		t, err := b.cycle(p, s, i, root)
		appendR.add(n, t.append)
		resumeR.add(n, t.resume)
		replayR.add(n, t.replay)
		exportR.add(n, t.export)
		journalBytes += t.bytes
		return unitOutcome{ops: n, timed: t.append + t.resume + t.replay + t.export, output: t.output, err: err}
	})
	for _, f := range []struct {
		name string
		r    rate
	}{
		{"append_records_per_s", appendR},
		{"resume_records_per_s", resumeR},
		{"replay_records_per_s", replayR},
		{"export_records_per_s", exportR},
	} {
		r.figures = append(r.figures, figure{f.name, "1/s", f.r.perSecond(), f.r.base()})
		r.setLayer("exp."+f.name, f.r.perSecond())
	}
	r.setLayer("exp.journal_bytes", float64(journalBytes))
	return r
}

// cycle appends s's synthesized records to a fresh binary journal,
// resumes it, replays it into Table I and exports it, then checks the
// outputs: the replayed table equals the table aggregated in memory from
// the same records, the resume ran nothing, and the exported columns
// decode back to the journal's rows in append order.
func (b *journalBench) cycle(p *pass, s exp.Sweep, i, root int) (phaseTimes, error) {
	var t phaseTimes
	insts := records(s)
	path := filepath.Join(b.dir, fmt.Sprintf("journal-%d.tsbl", i))
	cols := filepath.Join(b.dir, fmt.Sprintf("columns-%d", i))
	defer os.Remove(path)
	defer os.RemoveAll(cols)

	t0 := time.Now()
	span := p.start("exp.append", root, i)
	j, err := exp.CreateJournalFormat(path, s, exp.Shard{}, exp.FormatBinary)
	if err != nil {
		return t, err
	}
	for _, in := range insts {
		if err = j.Append(in); err != nil {
			break
		}
	}
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	p.end(span)
	t.append = time.Since(t0)
	if err != nil {
		return t, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return t, err
	}
	t.bytes = st.Size()

	t0 = time.Now()
	span = p.start("exp.resume", root, i)
	resumed, err := exp.ResumeWith(context.Background(), path, exp.RunOptions{Workers: p.workers, DiscardInstances: true})
	p.end(span)
	t.resume = time.Since(t0)
	if err != nil {
		return t, err
	}

	t0 = time.Now()
	span = p.start("exp.replay", root, i)
	replayed, err := exp.AggregateJournal(path)
	p.end(span)
	var table string
	if err == nil {
		span = p.start("exp.render", root, i)
		table, err = exp.RenderTableArtifact(replayed, 1)
		p.end(span)
	}
	t.replay = time.Since(t0)
	if err != nil {
		return t, err
	}

	t0 = time.Now()
	span = p.start("exp.export", root, i)
	err = exp.ExportColumns(path, cols)
	p.end(span)
	t.export = time.Since(t0)
	if err != nil {
		return t, err
	}
	t.output = sha256Hex(table)

	// Checks, untimed.
	want, err := exp.RenderTableArtifact(&exp.Result{Sweep: s, Instances: insts}, 1)
	if err != nil {
		return t, err
	}
	if table != want {
		return t, fmt.Errorf("replayed Table I differs from the in-memory aggregation")
	}
	if st, err := os.Stat(path); err != nil || st.Size() != t.bytes {
		return t, fmt.Errorf("resume wrote to a complete journal (re-ran instances)")
	}
	if art, err := exp.RenderTableArtifact(resumed, 1); err != nil || art != want {
		return t, fmt.Errorf("resumed Table I differs from the in-memory aggregation (%v)", err)
	}
	return t, checkColumns(cols, insts)
}

// checkColumns decodes an ExportColumns directory and compares its rows
// with the records in journal append order.
func checkColumns(dir string, insts []exp.InstanceResult) error {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return err
	}
	var m exp.ColumnsManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return err
	}
	if m.Rows != len(insts) {
		return fmt.Errorf("export has %d rows, journal %d", m.Rows, len(insts))
	}
	for _, c := range m.Columns {
		data, err := os.ReadFile(filepath.Join(dir, c.File))
		if err != nil {
			return err
		}
		width := map[string]int{"u8": 1, "i32": 4, "u32": 4, "i64": 8}[c.Type]
		if width == 0 || len(data) != width*len(insts) {
			return fmt.Errorf("column %s: %d bytes for %d rows of %s", c.Name, len(data), len(insts), c.Type)
		}
		field, ok := columnFields[c.Name]
		if !ok {
			return fmt.Errorf("unexpected column %s", c.Name)
		}
		for k, in := range insts {
			cell := data[k*width : (k+1)*width]
			var got int64
			switch c.Type {
			case "u8":
				got = int64(cell[0])
			case "i32":
				got = int64(int32(binary.LittleEndian.Uint32(cell)))
			case "u32":
				got = int64(binary.LittleEndian.Uint32(cell))
			case "i64":
				got = int64(binary.LittleEndian.Uint64(cell))
			}
			if c.Dictionary != nil {
				if got >= int64(len(c.Dictionary)) || c.Dictionary[got] != field.str(in) {
					return fmt.Errorf("column %s row %d: dictionary index %d, journal %q", c.Name, k, got, field.str(in))
				}
			} else if want := field.num(in); got != want {
				return fmt.Errorf("column %s row %d: %d, journal %d", c.Name, k, got, want)
			}
		}
	}
	return nil
}

// columnField extracts an exported column's value from a record: num
// for numeric columns, str for dictionary-encoded ones.
type columnField struct {
	num func(exp.InstanceResult) int64
	str func(exp.InstanceResult) string
}

var columnFields = map[string]columnField{
	"ncom":      {num: func(in exp.InstanceResult) int64 { return int64(in.Point.Ncom) }},
	"wmin":      {num: func(in exp.InstanceResult) int64 { return int64(in.Point.Wmin) }},
	"scenario":  {num: func(in exp.InstanceResult) int64 { return int64(in.Point.Scenario) }},
	"trial":     {num: func(in exp.InstanceResult) int64 { return int64(in.Trial) }},
	"makespan":  {num: func(in exp.InstanceResult) int64 { return in.Makespan }},
	"model":     {str: func(in exp.InstanceResult) string { return in.Model }},
	"heuristic": {str: func(in exp.InstanceResult) string { return in.Heuristic }},
	"failed": {num: func(in exp.InstanceResult) int64 {
		if in.Failed {
			return 1
		}
		return 0
	}},
}
