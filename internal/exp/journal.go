package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"

	"tightsched/internal/avail"
)

// Key uniquely identifies one (model, point, trial, heuristic) instance
// within a campaign — the coordinate a journal deduplicates on. Because
// every instance's seed derives deterministically from its coordinate
// (see Sweep.TrialSeed), re-running a key always reproduces the same
// InstanceResult, which is what makes resume exact.
type Key struct {
	Model     string
	Ncom      int
	Wmin      int
	Scenario  int
	Trial     int
	Heuristic string
}

// Key returns the instance's journal coordinate.
func (inst InstanceResult) Key() Key {
	return Key{modelName(inst), inst.Point.Ncom, inst.Point.Wmin,
		inst.Point.Scenario, inst.Trial, inst.Heuristic}
}

// SweepSpec is the JSON-serializable identity of a campaign: every field
// that determines the instance grid and its deterministic outcomes.
// Runtime knobs (Workers) are deliberately absent — they change speed,
// never results. Heuristics and Models are stored resolved, so a journal
// stays valid even if library defaults change later.
type SweepSpec struct {
	M            int      `json:"m"`
	Ncoms        []int    `json:"ncoms"`
	Wmins        []int    `json:"wmins"`
	Scenarios    int      `json:"scenarios"`
	Trials       int      `json:"trials"`
	P            int      `json:"p"`
	Iterations   int      `json:"iterations"`
	Cap          int64    `json:"cap"`
	Seed         uint64   `json:"seed"`
	Heuristics   []string `json:"heuristics"`
	Models       []string `json:"models"`
	InitialAllUp bool     `json:"initialAllUp,omitempty"`
}

// Spec returns the campaign's identity with heuristics and model names
// resolved.
func (s *Sweep) Spec() SweepSpec {
	models := make([]string, 0, len(s.models()))
	for _, m := range s.models() {
		models = append(models, m.Name())
	}
	return SweepSpec{
		M:            s.M,
		Ncoms:        append([]int(nil), s.Ncoms...),
		Wmins:        append([]int(nil), s.Wmins...),
		Scenarios:    s.Scenarios,
		Trials:       s.Trials,
		P:            s.P,
		Iterations:   s.Iterations,
		Cap:          s.Cap,
		Seed:         s.Seed,
		Heuristics:   append([]string(nil), s.heuristics()...),
		Models:       models,
		InitialAllUp: s.InitialAllUp,
	}
}

// Sweep reconstructs a runnable campaign from the spec. Models are
// resolved by name through the open registry (avail.Builtin), so any
// built-in or avail.Register'd model reconstructs headlessly; only a
// model constructed directly and never registered cannot — resume those
// with RunWithContext, passing the original Sweep alongside OpenJournal.
func (sp SweepSpec) Sweep() (Sweep, error) {
	s := sp.sweepDims()
	for _, name := range sp.Models {
		m, err := avail.Builtin(name)
		if err != nil {
			return Sweep{}, fmt.Errorf("exp: journal model %q is not registered; resume with RunWithContext and the original Sweep: %w", name, err)
		}
		s.Models = append(s.Models, m)
	}
	return s, nil
}

// sweepDims reconstructs everything but the model instances — enough for
// aggregation (which only reads recorded instances), not for re-running.
func (sp SweepSpec) sweepDims() Sweep {
	return Sweep{
		M:            sp.M,
		Ncoms:        append([]int(nil), sp.Ncoms...),
		Wmins:        append([]int(nil), sp.Wmins...),
		Scenarios:    sp.Scenarios,
		Trials:       sp.Trials,
		P:            sp.P,
		Iterations:   sp.Iterations,
		Cap:          sp.Cap,
		Seed:         sp.Seed,
		Heuristics:   append([]string(nil), sp.Heuristics...),
		InitialAllUp: sp.InitialAllUp,
	}
}

// journalHeader is the first line of every journal file.
type journalHeader struct {
	V int `json:"v"`
	// Kind is empty for sweep journals; it is decoded only so a grid
	// journal (gridJournalKind) is not mistaken for one.
	Kind  string    `json:"kind,omitempty"`
	Spec  SweepSpec `json:"spec"`
	Shard Shard     `json:"shard"`
}

// journalEntry is one completed instance, one line per instance.
type journalEntry struct {
	Model     string `json:"model"`
	Ncom      int    `json:"ncom"`
	Wmin      int    `json:"wmin"`
	Scenario  int    `json:"scenario"`
	Trial     int    `json:"trial"`
	Heuristic string `json:"heuristic"`
	Makespan  int64  `json:"makespan"`
	Failed    bool   `json:"failed,omitempty"`
}

func (e journalEntry) instance() InstanceResult {
	return InstanceResult{
		Point:     Point{Ncom: e.Ncom, Wmin: e.Wmin, Scenario: e.Scenario},
		Trial:     e.Trial,
		Model:     e.Model,
		Heuristic: e.Heuristic,
		Makespan:  e.Makespan,
		Failed:    e.Failed,
	}
}

func entryOf(inst InstanceResult) journalEntry {
	return journalEntry{
		Model:     modelName(inst),
		Ncom:      inst.Point.Ncom,
		Wmin:      inst.Point.Wmin,
		Scenario:  inst.Point.Scenario,
		Trial:     inst.Trial,
		Heuristic: inst.Heuristic,
		Makespan:  inst.Makespan,
		Failed:    inst.Failed,
	}
}

// journalSchema is what sets one journal kind apart: how its header
// validates, and how its records encode and decode.
type journalSchema[H, R any] struct {
	parseHeader func(path string, raw []byte) (H, error)
	encode      func(b []byte, format Format, r R) ([]byte, error)
	decode      func(format Format, payload []byte, intern map[string]string) (R, error)
}

// journalCore is the machinery Journal and GridJournal share: a record
// log (recordlog.go) of header H and records R, with the recorded set
// deduplicated by each record's key K.
type journalCore[H any, K comparable, R interface{ Key() K }] struct {
	mu     sync.Mutex
	schema *journalSchema[H, R]
	w      *RecordWriter
	format Format
	path   string
	header H
	done   map[K]R
	buf    []byte // record encode buffer, reused across appends
}

// create starts a new journal file stamped with header. It refuses to
// clobber an existing file.
func (c *journalCore[H, K, R]) create(schema *journalSchema[H, R], path string, format Format, header H) error {
	raw, err := json.Marshal(header)
	if err != nil {
		return err
	}
	w, err := CreateRecordLog(path, format, raw)
	if err != nil {
		return err
	}
	c.schema, c.w, c.format, c.path, c.header, c.done = schema, w, format, path, header, map[K]R{}
	return nil
}

// load reads a journal file of either format without modifying it,
// tolerating a torn tail (recordlog.go), and returns the intact-prefix
// length for reopen.
func (c *journalCore[H, K, R]) load(schema *journalSchema[H, R], path string) (int64, error) {
	c.schema, c.path, c.done = schema, path, map[K]R{}
	intern := map[string]string{}
	return ScanRecords(path,
		func(format Format, raw []byte) (err error) {
			c.format = format
			c.header, err = schema.parseHeader(path, raw)
			return err
		},
		func(payload []byte) error {
			r, err := schema.decode(c.format, payload, intern)
			if err != nil {
				return err
			}
			c.done[r.Key()] = r
			return nil
		})
}

// reopen positions a loaded journal for appending at validLen,
// truncating the torn tail.
func (c *journalCore[H, K, R]) reopen(validLen int64) error {
	w, err := OpenRecordLog(c.path, c.format, validLen)
	if err != nil {
		return fmt.Errorf("exp: open journal for append: %w", err)
	}
	c.w = w
	return nil
}

// Path returns the journal's file path.
func (c *journalCore[H, K, R]) Path() string { return c.path }

// Format returns the journal's on-disk format.
func (c *journalCore[H, K, R]) Format() Format { return c.format }

// Append records one completed instance, written to the file before it
// returns.
func (c *journalCore[H, K, R]) Append(r R) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, err := c.schema.encode(c.buf[:0], c.format, r)
	if err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	c.buf = b
	if err := c.w.AppendRecord(b); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	c.done[r.Key()] = r
	return nil
}

// Close closes the journal file; closing again is a no-op.
func (c *journalCore[H, K, R]) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.w == nil {
		return nil
	}
	err := c.w.Close()
	c.w = nil
	return err
}

// Journal is an append-only record of a campaign's completed instances:
// a header record stamping the campaign spec (and shard), then one
// record per instance, in either the JSONL or the binary format
// (recordlog.go). Every Append is written before it returns, so a
// crash loses at most the record being written — and OpenJournal
// tolerates exactly that torn tail. The journal file is the unit of
// resume (exp.ResumeWith) and of cross-machine recombination (exp.Merge);
// readers sniff the format, so both formats resume and merge freely.
type Journal struct {
	journalCore[journalHeader, Key, InstanceResult]
}

var sweepSchema = &journalSchema[journalHeader, InstanceResult]{
	parseHeader: parseJournalHeader,
	encode: func(b []byte, format Format, inst InstanceResult) ([]byte, error) {
		if format == FormatBinary {
			return appendBinaryEntry(b, entryOf(inst)), nil
		}
		return json.Marshal(entryOf(inst))
	},
	decode: func(format Format, payload []byte, intern map[string]string) (InstanceResult, error) {
		e, err := decodeJournalEntry(format, payload, intern)
		return e.instance(), err
	},
}

// CreateJournalFormat starts a new journal for the sweep in the given
// on-disk format (shard is the slice stamp; the zero Shard means the
// whole campaign). It fails if the file already exists — open an
// existing journal with OpenJournal to resume.
func CreateJournalFormat(path string, sweep Sweep, shard Shard, format Format) (*Journal, error) {
	if err := sweep.Validate(); err != nil {
		return nil, err
	}
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	j := &Journal{}
	header := journalHeader{V: 1, Spec: sweep.Spec(), Shard: shard.normalize()}
	if err := j.create(sweepSchema, path, format, header); err != nil {
		return nil, fmt.Errorf("exp: create journal: %w", err)
	}
	return j, nil
}

// decodeJournalEntry decodes one record payload in the given format.
func decodeJournalEntry(format Format, payload []byte, intern map[string]string) (journalEntry, error) {
	if format == FormatBinary {
		return decodeBinaryEntry(payload, intern)
	}
	var e journalEntry
	err := json.Unmarshal(payload, &e)
	return e, err
}

// parseJournalHeader validates a journal's raw header payload.
func parseJournalHeader(path string, raw []byte) (journalHeader, error) {
	var header journalHeader
	if err := json.Unmarshal(raw, &header); err != nil {
		return journalHeader{}, fmt.Errorf("exp: journal %s header: %w", path, err)
	}
	if header.V != 1 {
		return journalHeader{}, fmt.Errorf("exp: journal %s has unknown version %d", path, header.V)
	}
	if header.Kind != "" {
		return journalHeader{}, fmt.Errorf("exp: journal %s is a %q journal, not a sweep journal", path, header.Kind)
	}
	header.Shard = header.Shard.normalize()
	return header, nil
}

// readJournal loads a sweep journal file of either format without
// modifying it, and returns it with its intact-prefix length.
func readJournal(path string) (*Journal, int64, error) {
	j := &Journal{}
	validLen, err := j.load(sweepSchema, path)
	if err != nil {
		return nil, 0, err
	}
	return j, validLen, nil
}

// OpenJournal opens an existing journal for resuming: it sniffs the
// format, loads the header and every recorded instance, truncates a torn
// tail (the signature of a mid-write crash), and positions the file for
// appending. Read-only consumers (aggregation, merging) should use
// LoadJournal instead, which never writes.
func OpenJournal(path string) (*Journal, error) {
	j, validLen, err := readJournal(path)
	if err != nil {
		return nil, err
	}
	if err := j.reopen(validLen); err != nil {
		return nil, err
	}
	return j, nil
}

// Spec returns the campaign identity stamped in the header.
func (j *Journal) Spec() SweepSpec { return j.header.Spec }

// Shard returns the shard stamp ({0,1} for a whole-campaign journal).
func (j *Journal) Shard() Shard { return j.header.Shard }

// Done reports whether the key's instance is already journaled, and its
// recorded result.
func (j *Journal) Done(k Key) (InstanceResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	inst, ok := j.done[k]
	return inst, ok
}

// DoneCount returns the number of journaled instances.
func (j *Journal) DoneCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Instances returns the journaled results in canonical order.
func (j *Journal) Instances() []InstanceResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return sortedInstances(j.done)
}

// matches verifies that the journal belongs to this sweep and shard, so a
// resume cannot silently mix incompatible campaigns in one file.
func (j *Journal) matches(s *Sweep, shard Shard) error {
	if spec := s.Spec(); !reflect.DeepEqual(spec, j.header.Spec) {
		return fmt.Errorf("exp: journal %s records a different campaign (spec %+v, want %+v)",
			j.path, j.header.Spec, spec)
	}
	if got, want := j.header.Shard, shard.normalize(); got != want {
		return fmt.Errorf("exp: journal %s records shard %s, run requested %s", j.path, got, want)
	}
	return nil
}

// ResumeWith continues an interrupted journaled campaign from its file
// alone: the header reconstructs the sweep, recorded instances are
// trusted as-is, and only the missing (model, point, trial, heuristic)
// instances are re-run — each from its coordinate-derived seed, so the
// final Result is bit-identical to an uninterrupted run's. Models resolve
// by name through the open registry; only campaigns whose availability
// models were never registered must instead resume via RunWithContext
// with the original Sweep and OpenJournal.
//
// The journal and shard are read from the file (the Journal and Shard
// fields of opts are ignored); everything else — progress, sink,
// observer, instance discarding — applies as in RunWithContext. The
// journal is closed, flushed and resumable again when ResumeWith returns,
// whether the campaign completed or the context was cancelled.
func ResumeWith(ctx context.Context, journalPath string, opts RunOptions) (*Result, error) {
	j, err := OpenJournal(journalPath)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	sweep, err := j.Spec().Sweep()
	if err != nil {
		return nil, err
	}
	opts.Journal = j
	opts.Shard = j.Shard()
	return RunWithContext(ctx, sweep, opts)
}

// LoadJournal reads a journal into a Result without running anything or
// writing to the file (safe on read-only artifacts) — the input to
// exp.Merge when recombining shard journals. The Result's Sweep carries
// the journaled dimensions (models stay name-only inside the instances).
func LoadJournal(path string) (*Result, Shard, error) {
	j, _, err := readJournal(path)
	if err != nil {
		return nil, Shard{}, err
	}
	return &Result{Sweep: j.header.Spec.sweepDims(), Instances: sortedInstances(j.done)}, j.header.Shard, nil
}

// sortedInstances flattens a key-indexed instance set into canonical
// order.
func sortedInstances(done map[Key]InstanceResult) []InstanceResult {
	out := make([]InstanceResult, 0, len(done))
	for _, inst := range done {
		out = append(out, inst)
	}
	sortInstances(out)
	return out
}
