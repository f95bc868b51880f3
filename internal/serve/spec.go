// Package serve is the campaign service layer behind cmd/tightschedd: a
// long-running HTTP front door over the tightsched Session API. Campaigns
// arrive as versioned declarative specs (YAML or JSON), run on a bounded
// runner pool with journals on disk, stream typed progress events to any
// number of SSE subscribers, and expose Prometheus-style metrics — the
// ROADMAP's "heavy traffic from many users" entry point, grounded in the
// spiderpool daemon shape (serve loop, handler layout, metrics, graceful
// shutdown) and the CAPV API-contract style of explicit, validated
// request documents.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"tightsched"
)

// SpecVersion is the campaign-spec document version this daemon speaks.
const SpecVersion = 1

// SpecError is one structured spec rejection: the path of the offending
// field (empty for document-level failures) and what is wrong with it.
// It is the JSON body of every 400 the submit endpoint returns, so
// clients can point at the exact line of their spec — the service-layer
// mirror of the Session options' scope-check errors, which likewise
// refuse to silently ignore configuration.
type SpecError struct {
	Path    string `json:"path,omitempty"`
	Message string `json:"message"`
}

func (e *SpecError) Error() string {
	if e.Path == "" {
		return "spec: " + e.Message
	}
	return fmt.Sprintf("spec: %s: %s", e.Path, e.Message)
}

func specErr(path, format string, args ...any) *SpecError {
	return &SpecError{Path: path, Message: fmt.Sprintf(format, args...)}
}

// Spec is a validated, defaulted campaign spec: the declarative contract
// of POST /v1/campaigns. Sweep is runnable (models resolved through the
// open registry) and Stamped is its serialized identity — the same
// SweepSpec that journal headers carry, so a spec, its journal and its
// status report all speak one format.
type Spec struct {
	// Name is the submitter's label for the campaign (optional; shown in
	// status listings, never interpreted).
	Name string
	// Preset records the requested defaults profile ("", "quick", "full").
	Preset string
	// Sweep is the runnable campaign (dimensions, heuristics, models,
	// plus the runtime knobs advance/maxLeap/workers already applied).
	Sweep tightsched.Sweep
	// Stamped is Sweep's resolved serialized identity.
	Stamped tightsched.SweepSpec
	// Shard is the grid slice to run (zero value: the whole campaign).
	Shard tightsched.SweepShard
	// Journal selects durable execution: the daemon journals the campaign
	// to its data directory, making cancellation resumable (default true).
	Journal bool
	// Format is the journal's on-disk encoding (run.format: jsonl |
	// binary; default jsonl). Restart sniffs the existing file, so the
	// choice matters only when the journal is first created.
	Format tightsched.JournalFormat
	// Cluster, when set, runs the campaign on external worker processes
	// with crash-tolerant leases (run.cluster block) instead of the
	// in-process runner pool.
	Cluster *ClusterSpec
	// Grid, when set, is a runnable online multi-application campaign
	// (grid block, mutually exclusive with sweep); Sweep is then zero and
	// the campaign runs through Session.RunOnline.
	Grid *tightsched.OnlineSweep
	// GridStamped is Grid's resolved serialized identity — the grid
	// journal header's spec.
	GridStamped *tightsched.OnlineSpec
}

// specDocument is the raw v1 document shape, named here only for
// documentation; decoding walks the generic tree so that every
// unknown or ill-typed field is reported with its exact path:
//
//	version: 1                 # required
//	name: quick-t1             # optional label
//	preset: quick              # optional: quick | full (defaults profile)
//	sweep:                     # required block, journal-header field names
//	  m: 5                     # required always
//	  ncoms: [5, 10, 20]       # required without preset
//	  wmins: [1, 2, 3]         # required without preset
//	  scenarios: 2             # required without preset
//	  trials: 2                # required without preset
//	  p: 20                    # default 20 (paper platform size)
//	  iterations: 10           # default 10
//	  cap: 100000              # default 1,000,000 (paper failure cap)
//	  seed: 20130522           # default 0
//	  heuristics: [IE, Y-IE]   # default: every registered heuristic
//	  models: [markov]         # default: the paper's Markov ground truth
//	  initialAllUp: false
//	run:                       # optional runtime knobs (never in identity)
//	  advance: leap            # leap | slot | batch
//	  maxLeap: 0               # macro-step bound (0 = default)
//	  workers: 0               # per-campaign parallel sims (0 = GOMAXPROCS)
//	  journal: true            # journal to the daemon's data dir
//	  format: jsonl            # journal encoding: jsonl | binary
//	  shard: 0/3               # run one slice of the grid
//	  cluster:                 # lease the grid to external workers
//	    units: 8               # initial work-unit decomposition
//	    leaseTtl: 15s          # lease expiry without a heartbeat
//	    gcInterval: 5s         # expired-lease sweep cadence
//	    reshard: true          # split requeued units in half
//
// An online multi-application campaign replaces the sweep block with a
// grid block (see gridspec.go for its schema); the two are mutually
// exclusive, and only run.workers and run.journal of the runtime knobs
// apply to grid campaigns.
//
// DecodeSpec parses, validates and defaults a campaign spec. contentType
// selects the format ("application/json", "application/yaml" or
// "text/yaml"; unset sniffs — documents starting with '{' are JSON).
// Every rejection is a *SpecError naming the offending path: unknown
// fields, an unsupported version, an out-of-range advance mode, a shard
// with index >= count, missing sweep axes, ill-typed values and unknown
// heuristic/model names all fail at submit time, never inside a worker.
func DecodeSpec(data []byte, contentType string) (*Spec, *SpecError) {
	tree, err := decodeTree(data, contentType)
	if err != nil {
		return nil, &SpecError{Message: err.Error()}
	}
	return specFromTree(tree)
}

// decodeTree parses the document into the generic JSON-style tree shared
// by both formats.
func decodeTree(data []byte, contentType string) (any, error) {
	ct := contentType
	if i := strings.Index(ct, ";"); i >= 0 {
		ct = ct[:i]
	}
	ct = strings.TrimSpace(strings.ToLower(ct))
	isJSON := strings.HasSuffix(ct, "json")
	if ct == "" || ct == "application/octet-stream" {
		isJSON = bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{"))
	}
	if isJSON {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		var tree any
		if err := dec.Decode(&tree); err != nil {
			return nil, fmt.Errorf("invalid JSON: %v", err)
		}
		var trailing any
		if err := dec.Decode(&trailing); err == nil || !strings.Contains(err.Error(), "EOF") {
			return nil, fmt.Errorf("invalid JSON: trailing content after the spec document")
		}
		return tree, nil
	}
	tree, err := parseYAML(data)
	if err != nil {
		return nil, fmt.Errorf("invalid YAML: %v", err)
	}
	return tree, nil
}

// specFromTree walks the generic tree against the v1 schema.
func specFromTree(tree any) (*Spec, *SpecError) {
	root, ok := tree.(map[string]any)
	if !ok {
		return nil, specErr("", "spec document must be a mapping")
	}
	if serr := rejectUnknown(root, "", "version", "name", "preset", "sweep", "grid", "run"); serr != nil {
		return nil, serr
	}

	version, present, serr := intField(root, "version", "version")
	if serr != nil {
		return nil, serr
	}
	if !present {
		return nil, specErr("version", "required (this daemon speaks spec v%d)", SpecVersion)
	}
	if version != SpecVersion {
		return nil, specErr("version", "unsupported spec version %d (this daemon speaks v%d)", version, SpecVersion)
	}

	spec := &Spec{Journal: true}
	if spec.Name, _, serr = stringField(root, "name", "name"); serr != nil {
		return nil, serr
	}
	if spec.Preset, _, serr = stringField(root, "preset", "preset"); serr != nil {
		return nil, serr
	}
	switch spec.Preset {
	case "", "quick", "full":
	default:
		return nil, specErr("preset", "unknown preset %q (choose quick or full, or omit)", spec.Preset)
	}

	sweepTree, hasSweep := root["sweep"]
	gridTree, hasGrid := root["grid"]
	hasSweep = hasSweep && sweepTree != nil
	hasGrid = hasGrid && gridTree != nil
	if hasSweep && hasGrid {
		return nil, specErr("grid", "mutually exclusive with sweep (a campaign is offline or online, not both)")
	}
	if !hasSweep && !hasGrid {
		return nil, specErr("sweep", "required block (campaign dimensions; or a grid block for an online campaign)")
	}

	if hasGrid {
		gridMap, ok := gridTree.(map[string]any)
		if !ok {
			return nil, specErr("grid", "must be a mapping")
		}
		g, serr := gridFromTree(gridMap, spec.Preset)
		if serr != nil {
			return nil, serr
		}
		spec.Grid = &g
		if runTree, ok := root["run"]; ok && runTree != nil {
			runMap, ok := runTree.(map[string]any)
			if !ok {
				return nil, specErr("run", "must be a mapping")
			}
			rt, serr := runFromTree(runMap, spec)
			if serr != nil {
				return nil, serr
			}
			g.Workers = rt.Workers
		}
		if err := g.Validate(); err != nil {
			return nil, &SpecError{Path: "grid", Message: err.Error()}
		}
		stamped := g.Spec()
		spec.GridStamped = &stamped
		return spec, nil
	}

	sweepMap, ok := sweepTree.(map[string]any)
	if !ok {
		return nil, specErr("sweep", "must be a mapping")
	}
	sweep, serr := sweepFromTree(sweepMap, spec.Preset)
	if serr != nil {
		return nil, serr
	}

	rt := tightsched.SweepRuntime{}
	if runTree, ok := root["run"]; ok && runTree != nil {
		runMap, ok := runTree.(map[string]any)
		if !ok {
			return nil, specErr("run", "must be a mapping")
		}
		if rt, serr = runFromTree(runMap, spec); serr != nil {
			return nil, serr
		}
	}

	built, err := tightsched.SweepFromSpec(sweep.Spec(), rt)
	if err != nil {
		return nil, &SpecError{Path: "sweep", Message: err.Error()}
	}
	spec.Sweep = built
	spec.Stamped = built.Spec()
	return spec, nil
}

// sweepFromTree builds the campaign dimensions, defaulting from the
// preset profile when one is named and from the paper's constants
// otherwise. Axes have no sensible defaults without a preset, so a
// missing axis is a per-path rejection — silence would run a campaign
// the submitter never described.
func sweepFromTree(m map[string]any, preset string) (tightsched.Sweep, *SpecError) {
	if serr := rejectUnknown(m, "sweep.", "m", "ncoms", "wmins", "scenarios", "trials",
		"p", "iterations", "cap", "seed", "heuristics", "models", "initialAllUp"); serr != nil {
		return tightsched.Sweep{}, serr
	}
	tasks, present, serr := positiveIntField(m, "m", "sweep.m")
	if serr != nil {
		return tightsched.Sweep{}, serr
	}
	if !present {
		return tightsched.Sweep{}, specErr("sweep.m", "required (tasks per iteration; the paper uses 5 and 10)")
	}

	var sweep tightsched.Sweep
	switch preset {
	case "quick":
		sweep = tightsched.QuickSweep(tasks)
	case "full":
		sweep = tightsched.PaperSweep(tasks)
	default:
		sweep = tightsched.Sweep{M: tasks, P: 20, Iterations: 10, Cap: tightsched.DefaultCap}
		for _, axis := range []struct {
			key     string
			example string
		}{
			{"ncoms", "[5, 10, 20]"},
			{"wmins", "[1, 2, 3]"},
			{"scenarios", "2"},
			{"trials", "2"},
		} {
			if _, ok := m[axis.key]; !ok {
				return tightsched.Sweep{}, specErr("sweep."+axis.key,
					"required without a preset (e.g. %s); or set preset: quick|full", axis.example)
			}
		}
	}
	sweep.M = tasks

	if v, present, serr := positiveIntListField(m, "ncoms", "sweep.ncoms"); serr != nil {
		return tightsched.Sweep{}, serr
	} else if present {
		sweep.Ncoms = v
	}
	if v, present, serr := positiveIntListField(m, "wmins", "sweep.wmins"); serr != nil {
		return tightsched.Sweep{}, serr
	} else if present {
		sweep.Wmins = v
	}
	for _, f := range []struct {
		key  string
		dest *int
	}{
		{"scenarios", &sweep.Scenarios},
		{"trials", &sweep.Trials},
		{"p", &sweep.P},
		{"iterations", &sweep.Iterations},
	} {
		if v, present, serr := positiveIntField(m, f.key, "sweep."+f.key); serr != nil {
			return tightsched.Sweep{}, serr
		} else if present {
			*f.dest = v
		}
	}
	if v, present, serr := int64Field(m, "cap", "sweep.cap"); serr != nil {
		return tightsched.Sweep{}, serr
	} else if present {
		if v <= 0 {
			return tightsched.Sweep{}, specErr("sweep.cap", "must be a positive slot count, got %d", v)
		}
		sweep.Cap = v
	}
	if v, present, serr := uint64Field(m, "seed", "sweep.seed"); serr != nil {
		return tightsched.Sweep{}, serr
	} else if present {
		sweep.Seed = v
	}
	if v, present, serr := stringListField(m, "heuristics", "sweep.heuristics"); serr != nil {
		return tightsched.Sweep{}, serr
	} else if present {
		known := map[string]bool{}
		for _, h := range tightsched.Heuristics() {
			known[h] = true
		}
		for i, h := range v {
			if !known[h] {
				return tightsched.Sweep{}, specErr(fmt.Sprintf("sweep.heuristics[%d]", i),
					"unknown heuristic %q (see GET /v1/heuristics)", h)
			}
		}
		sweep.Heuristics = v
	}
	if v, present, serr := stringListField(m, "models", "sweep.models"); serr != nil {
		return tightsched.Sweep{}, serr
	} else if present {
		sweep.Models = nil
		for i, name := range v {
			model, err := tightsched.ModelByName(name)
			if err != nil {
				return tightsched.Sweep{}, specErr(fmt.Sprintf("sweep.models[%d]", i),
					"unknown availability model %q (see GET /v1/models)", name)
			}
			sweep.Models = append(sweep.Models, model)
		}
	}
	if v, present, serr := boolField(m, "initialAllUp", "sweep.initialAllUp"); serr != nil {
		return tightsched.Sweep{}, serr
	} else if present {
		sweep.InitialAllUp = v
	}
	return sweep, nil
}

// runFromTree parses the runtime block: the knobs that change speed,
// never results, mirroring the option set of the Session campaign entry
// points. Modes are validated here — at submit time — with the same
// single validation point the WithTimeAdvance option uses.
func runFromTree(m map[string]any, spec *Spec) (tightsched.SweepRuntime, *SpecError) {
	var rt tightsched.SweepRuntime
	if serr := rejectUnknown(m, "run.", "advance", "maxLeap", "workers", "journal", "format", "shard", "cluster"); serr != nil {
		return rt, serr
	}
	if spec.Grid != nil {
		// The online engine has no batched core, shardable instance grid
		// or cluster lease decomposition; refusing beats silently ignoring.
		for _, key := range []string{"advance", "maxLeap", "shard", "cluster"} {
			if _, ok := m[key]; ok {
				return rt, specErr("run."+key, "does not apply to an online grid campaign")
			}
		}
	}
	if v, present, serr := stringField(m, "advance", "run.advance"); serr != nil {
		return rt, serr
	} else if present {
		adv, err := tightsched.ParseTimeAdvance(v)
		if err != nil {
			return rt, specErr("run.advance", "unknown time advance %q (choose leap, slot or batch)", v)
		}
		rt.Advance = adv
	}
	if v, present, serr := int64Field(m, "maxLeap", "run.maxLeap"); serr != nil {
		return rt, serr
	} else if present {
		if v < 0 {
			return rt, specErr("run.maxLeap", "must be >= 0, got %d", v)
		}
		rt.MaxLeap = v
	}
	if v, present, serr := intField(m, "workers", "run.workers"); serr != nil {
		return rt, serr
	} else if present {
		if v < 0 {
			return rt, specErr("run.workers", "must be >= 0, got %d", v)
		}
		rt.Workers = v
	}
	if v, present, serr := boolField(m, "journal", "run.journal"); serr != nil {
		return rt, serr
	} else if present {
		spec.Journal = v
	}
	if v, present, serr := stringField(m, "format", "run.format"); serr != nil {
		return rt, serr
	} else if present {
		format, err := tightsched.ParseJournalFormat(v)
		if err != nil {
			return rt, specErr("run.format", "unknown journal format %q (choose jsonl or binary)", v)
		}
		if !spec.Journal {
			return rt, specErr("run.format", "requires run.journal: true (the format names the journal's encoding)")
		}
		spec.Format = format
	}
	if v, present, serr := stringField(m, "shard", "run.shard"); serr != nil {
		return rt, serr
	} else if present && v != "" {
		shard, err := tightsched.ParseSweepShard(v)
		if err != nil {
			return rt, specErr("run.shard", "invalid shard %q (want 0-based \"i/n\" with i < n)", v)
		}
		spec.Shard = shard
	}
	if raw, ok := m["cluster"]; ok && raw != nil {
		clusterMap, ok := raw.(map[string]any)
		if !ok {
			return rt, specErr("run.cluster", "must be a mapping")
		}
		cs, serr := clusterFromTree(clusterMap)
		if serr != nil {
			return rt, serr
		}
		// Cluster execution owns the whole grid (the coordinator shards
		// it into lease units itself) and lives on its journal.
		if spec.Shard.Count > 1 {
			return rt, specErr("run.cluster", "incompatible with run.shard (the coordinator decomposes the grid itself)")
		}
		if !spec.Journal {
			return rt, specErr("run.cluster", "requires run.journal: true (the journal is the dedup and completion authority)")
		}
		spec.Cluster = cs
	}
	return rt, nil
}

// rejectUnknown fails on any key outside the schema — a typo'd or
// unsupported field must never be silently dropped.
func rejectUnknown(m map[string]any, prefix string, allowed ...string) *SpecError {
	ok := map[string]bool{}
	for _, k := range allowed {
		ok[k] = true
	}
	// Deterministic reporting: complain about the lexically first
	// offender, not a random map-order one.
	var bad []string
	for k := range m {
		if !ok[k] {
			bad = append(bad, k)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	first := bad[0]
	for _, k := range bad[1:] {
		if k < first {
			first = k
		}
	}
	return specErr(prefix+first, "unknown field (allowed: %s)", strings.Join(allowed, ", "))
}

// Field accessors: each returns (value, present, error), typing failures
// as path-specific SpecErrors.

func intField(m map[string]any, key, path string) (int, bool, *SpecError) {
	v, present, serr := int64Field(m, key, path)
	if serr != nil || !present {
		return 0, present, serr
	}
	if int64(int(v)) != v {
		return 0, true, specErr(path, "integer %d overflows", v)
	}
	return int(v), true, nil
}

func positiveIntField(m map[string]any, key, path string) (int, bool, *SpecError) {
	v, present, serr := intField(m, key, path)
	if serr != nil || !present {
		return 0, present, serr
	}
	if v <= 0 {
		return 0, true, specErr(path, "must be a positive integer, got %d", v)
	}
	return v, true, nil
}

func int64Field(m map[string]any, key, path string) (int64, bool, *SpecError) {
	raw, ok := m[key]
	if !ok {
		return 0, false, nil
	}
	num, ok := raw.(json.Number)
	if !ok {
		return 0, true, specErr(path, "must be an integer, got %s", describeValue(raw))
	}
	v, err := num.Int64()
	if err != nil {
		return 0, true, specErr(path, "must be an integer, got %s", num.String())
	}
	return v, true, nil
}

func uint64Field(m map[string]any, key, path string) (uint64, bool, *SpecError) {
	raw, ok := m[key]
	if !ok {
		return 0, false, nil
	}
	num, ok := raw.(json.Number)
	if !ok {
		return 0, true, specErr(path, "must be a non-negative integer, got %s", describeValue(raw))
	}
	v, err := strconv.ParseUint(num.String(), 10, 64)
	if err != nil {
		return 0, true, specErr(path, "must be a non-negative integer, got %s", num.String())
	}
	return v, true, nil
}

func stringField(m map[string]any, key, path string) (string, bool, *SpecError) {
	raw, ok := m[key]
	if !ok {
		return "", false, nil
	}
	v, ok := raw.(string)
	if !ok {
		return "", true, specErr(path, "must be a string, got %s", describeValue(raw))
	}
	return v, true, nil
}

func boolField(m map[string]any, key, path string) (bool, bool, *SpecError) {
	raw, ok := m[key]
	if !ok {
		return false, false, nil
	}
	v, ok := raw.(bool)
	if !ok {
		return false, true, specErr(path, "must be true or false, got %s", describeValue(raw))
	}
	return v, true, nil
}

func positiveIntListField(m map[string]any, key, path string) ([]int, bool, *SpecError) {
	raw, ok := m[key]
	if !ok {
		return nil, false, nil
	}
	list, ok := raw.([]any)
	if !ok {
		return nil, true, specErr(path, "must be a list of positive integers, got %s", describeValue(raw))
	}
	if len(list) == 0 {
		return nil, true, specErr(path, "must not be empty")
	}
	out := make([]int, len(list))
	for i, item := range list {
		num, ok := item.(json.Number)
		if !ok {
			return nil, true, specErr(fmt.Sprintf("%s[%d]", path, i),
				"must be a positive integer, got %s", describeValue(item))
		}
		v, err := num.Int64()
		if err != nil || v <= 0 || int64(int(v)) != v {
			return nil, true, specErr(fmt.Sprintf("%s[%d]", path, i),
				"must be a positive integer, got %s", num.String())
		}
		out[i] = int(v)
	}
	return out, true, nil
}

func stringListField(m map[string]any, key, path string) ([]string, bool, *SpecError) {
	raw, ok := m[key]
	if !ok {
		return nil, false, nil
	}
	list, ok := raw.([]any)
	if !ok {
		return nil, true, specErr(path, "must be a list of strings, got %s", describeValue(raw))
	}
	if len(list) == 0 {
		return nil, true, specErr(path, "must not be empty")
	}
	out := make([]string, len(list))
	for i, item := range list {
		v, ok := item.(string)
		if !ok {
			return nil, true, specErr(fmt.Sprintf("%s[%d]", path, i),
				"must be a string, got %s", describeValue(item))
		}
		out[i] = v
	}
	return out, true, nil
}

// describeValue names a tree value for error messages.
func describeValue(v any) string {
	switch v := v.(type) {
	case nil:
		return "null"
	case bool:
		return fmt.Sprintf("boolean %v", v)
	case string:
		return fmt.Sprintf("string %q", v)
	case json.Number:
		return "number " + v.String()
	case []any:
		return "a list"
	case map[string]any:
		return "a mapping"
	default:
		return fmt.Sprintf("%T", v)
	}
}
