package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"

	"tightsched/internal/grid"
	"tightsched/internal/platform"
)

// GridSpec is a GridSweep's serializable identity — every parameter that
// affects results, and nothing that only affects execution (Workers).
// It is the journal header of grid campaigns and the stamped identity
// the daemon reports; arrival traces ride inline, so a journaled trace
// campaign resumes headlessly with no trace file around.
type GridSpec struct {
	Tiers       []platform.SpeedTier `json:"tiers"`
	Ncom        int                  `json:"ncom"`
	AppProcs    int                  `json:"appProcs"`
	M           int                  `json:"m"`
	Iterations  int                  `json:"iterations"`
	Horizon     int64                `json:"horizon"`
	Heuristic   string               `json:"heuristic"`
	Model       string               `json:"model"`
	Seed        uint64               `json:"seed"`
	Trials      int                  `json:"trials"`
	Arrivals    []grid.ArrivalSpec   `json:"arrivals"`
	Admissions  []string             `json:"admissions"`
	Preemptions []string             `json:"preemptions"`
}

// Spec returns the sweep's identity.
func (g *GridSweep) Spec() GridSpec {
	return GridSpec{
		Tiers:       g.Tiers,
		Ncom:        g.Ncom,
		AppProcs:    g.AppProcs,
		M:           g.M,
		Iterations:  g.Iterations,
		Horizon:     g.Horizon,
		Heuristic:   g.Heuristic,
		Model:       g.Model,
		Seed:        g.Seed,
		Trials:      g.Trials,
		Arrivals:    g.Arrivals,
		Admissions:  g.Admissions,
		Preemptions: g.Preemptions,
	}
}

// Sweep reconstructs the campaign a spec identifies.
func (sp GridSpec) Sweep() GridSweep {
	return GridSweep{
		Tiers:       sp.Tiers,
		Ncom:        sp.Ncom,
		AppProcs:    sp.AppProcs,
		M:           sp.M,
		Iterations:  sp.Iterations,
		Horizon:     sp.Horizon,
		Heuristic:   sp.Heuristic,
		Model:       sp.Model,
		Seed:        sp.Seed,
		Trials:      sp.Trials,
		Arrivals:    sp.Arrivals,
		Admissions:  sp.Admissions,
		Preemptions: sp.Preemptions,
	}
}

// gridHeader is a grid journal's first line. The kind marker keeps grid
// and sweep journals from being mistaken for one another.
type gridHeader struct {
	V    int      `json:"v"`
	Kind string   `json:"kind"`
	Spec GridSpec `json:"spec"`
}

const gridJournalKind = "grid"

// GridJournal is the append-only journal of an online campaign — the
// same crash-tolerant core as the sweep Journal (one header record, one
// GridInstance per record, written per append, torn tails truncated on
// reopen, JSONL or binary framing), keyed by (arrival, admission,
// preemption, trial).
type GridJournal struct {
	journalCore[gridHeader, GridKey, GridInstance]
}

var gridSchema = &journalSchema[gridHeader, GridInstance]{
	parseHeader: parseGridHeader,
	encode: func(b []byte, format Format, inst GridInstance) ([]byte, error) {
		if format == FormatBinary {
			return appendBinaryGridEntry(b, inst), nil
		}
		return json.Marshal(inst)
	},
	decode: decodeGridEntry,
}

// CreateGridJournalFormat starts a new journal for the campaign in the
// given on-disk format. It refuses to clobber an existing file.
func CreateGridJournalFormat(path string, g *GridSweep, format Format) (*GridJournal, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	j := &GridJournal{}
	header := gridHeader{V: 1, Kind: gridJournalKind, Spec: g.Spec()}
	if err := j.create(gridSchema, path, format, header); err != nil {
		return nil, err
	}
	return j, nil
}

// decodeGridEntry decodes one grid record payload in the given format.
func decodeGridEntry(format Format, payload []byte, intern map[string]string) (GridInstance, error) {
	if format == FormatBinary {
		return decodeBinaryGridEntry(payload, intern)
	}
	var inst GridInstance
	err := json.Unmarshal(payload, &inst)
	return inst, err
}

// parseGridHeader validates a grid journal's raw header payload.
func parseGridHeader(path string, raw []byte) (gridHeader, error) {
	var header gridHeader
	if err := json.Unmarshal(raw, &header); err != nil {
		return gridHeader{}, fmt.Errorf("%s: bad journal header: %w", path, err)
	}
	if header.V != 1 || header.Kind != gridJournalKind {
		return gridHeader{}, fmt.Errorf("%s: not a v1 grid journal (v=%d kind=%q)", path, header.V, header.Kind)
	}
	return header, nil
}

// readGridJournal loads a grid journal file of either format without
// modifying it, and returns it with its intact-prefix length.
func readGridJournal(path string) (*GridJournal, int64, error) {
	j := &GridJournal{}
	validLen, err := j.load(gridSchema, path)
	if err != nil {
		return nil, 0, err
	}
	return j, validLen, nil
}

// OpenGridJournal reopens an existing journal for appending, dropping a
// crash-torn tail. The journal's spec must match the campaign exactly;
// a journal of another campaign is left untouched.
func OpenGridJournal(path string, g *GridSweep) (*GridJournal, error) {
	j, validLen, err := readGridJournal(path)
	if err != nil {
		return nil, err
	}
	if err := j.matches(g); err != nil {
		return nil, err
	}
	if err := j.reopen(validLen); err != nil {
		return nil, err
	}
	return j, nil
}

// matches verifies the journal belongs to the campaign.
func (j *GridJournal) matches(g *GridSweep) error {
	if !reflect.DeepEqual(j.header.Spec, g.Spec()) {
		return fmt.Errorf("%s: journal belongs to a different grid campaign", j.path)
	}
	return nil
}

// Done returns a copy of the journaled instances by key.
func (j *GridJournal) Done() map[GridKey]GridInstance {
	j.mu.Lock()
	defer j.mu.Unlock()
	done := make(map[GridKey]GridInstance, len(j.done))
	for k, v := range j.done {
		done[k] = v
	}
	return done
}

// ResumeGrid completes a journaled online campaign: the sweep comes from
// the header, journaled instances replay, and only missing ones run.
// The result is bit-identical to an uninterrupted run (instances are
// deterministic and canonically sorted).
func ResumeGrid(ctx context.Context, path string, opt GridRunOptions) (*GridResult, error) {
	j, validLen, err := readGridJournal(path)
	if err != nil {
		return nil, err
	}
	if err := j.reopen(validLen); err != nil {
		return nil, err
	}
	defer j.Close()
	opt.Journal = j
	return RunGridContext(ctx, j.header.Spec.Sweep(), opt)
}

// LoadGridJournal loads a journal read-only into a (possibly partial)
// result, without running anything.
func LoadGridJournal(path string) (*GridResult, error) {
	j, _, err := readGridJournal(path)
	if err != nil {
		return nil, err
	}
	instances := make([]GridInstance, 0, len(j.done))
	for _, inst := range j.done {
		instances = append(instances, inst)
	}
	sortGridInstances(instances)
	return &GridResult{Sweep: j.header.Spec.Sweep(), Instances: instances}, nil
}
