package cluster

import (
	"encoding/json"
	"fmt"
	"time"

	"tightsched/internal/exp"
)

// The lease state log is the coordinator's durability: an append-only
// JSONL record log (exp.CreateRecordLog, the campaign journal's substrate)
// holding one header line — the campaign's full cluster identity — and
// one line per lease-lifecycle transition. Heartbeats are deliberately
// NOT logged: deadlines are volatile state, recomputed on restart, so
// the log grows with decisions (grants, requeues, completions), not
// with time. Replaying the log over the campaign journal reconstructs
// the exact unit/lease state a killed coordinator held, modulo
// deadlines — which is all a correct restart needs, because expired
// leases requeue through the normal GC path and duplicate uploads
// dedupe by coordinate key.

// StateHeader is the lease log's first line: everything needed to
// re-register and resume the campaign after a daemon restart, without
// consulting any other file.
type StateHeader struct {
	V         int           `json:"v"`
	Campaign  string        `json:"campaign"`
	Name      string        `json:"name,omitempty"`
	Submitted time.Time     `json:"submitted"`
	Spec      exp.SweepSpec `json:"spec"`
	// Units is the initial decomposition width (clamped to the grid's
	// coordinate count at creation).
	Units            int   `json:"units"`
	LeaseTTLMillis   int64 `json:"leaseTtlMillis"`
	GCIntervalMillis int64 `json:"gcIntervalMillis"`
	Reshard          bool  `json:"reshard"`
}

// LeaseTTL returns the header's lease TTL as a duration.
func (h StateHeader) LeaseTTL() time.Duration {
	return time.Duration(h.LeaseTTLMillis) * time.Millisecond
}

// GCInterval returns the header's GC cadence as a duration.
func (h StateHeader) GCInterval() time.Duration {
	return time.Duration(h.GCIntervalMillis) * time.Millisecond
}

// stateEvent is one logged transition.
type stateEvent struct {
	// Ev is the transition kind: "grant", "requeue", "done", "end".
	Ev string `json:"ev"`
	// Unit names the affected work unit in "i/n" form.
	Unit string `json:"unit,omitempty"`
	// Lease is the lease the transition belongs to ("" for a done
	// detected from journal coverage alone).
	Lease  string `json:"lease,omitempty"`
	Worker string `json:"worker,omitempty"`
	// Offset is the campaign journal's instance count at grant time.
	Offset int `json:"offset,omitempty"`
	// Split marks a requeue that replaced the unit with its two
	// half-width children.
	Split bool `json:"split,omitempty"`
	// State is the terminal campaign state of an "end" event.
	State string `json:"state,omitempty"`
}

// ReadState reads a lease log without modifying it: the header, the
// decoded events of the intact prefix, the terminal state ("" while the
// campaign is live), and the byte length of the intact prefix for
// appending. A torn tail — the signature of a coordinator killed
// mid-write — is dropped (exp.ScanRecords): the transition it would have
// recorded was never acknowledged, so losing it is consistent by
// construction.
func ReadState(path string) (StateHeader, []stateEvent, string, int64, error) {
	var header StateHeader
	var events []stateEvent
	terminal := ""
	validLen, err := exp.ScanRecords(path,
		func(format exp.Format, raw []byte) error {
			if format != exp.FormatJSONL {
				return fmt.Errorf("not a JSONL lease log")
			}
			if err := json.Unmarshal(raw, &header); err != nil {
				return fmt.Errorf("header: %w", err)
			}
			if header.V != 1 {
				return fmt.Errorf("unknown version %d", header.V)
			}
			return nil
		},
		func(payload []byte) error {
			var ev stateEvent
			if err := json.Unmarshal(payload, &ev); err != nil {
				return err
			}
			if ev.Ev == "end" {
				terminal = ev.State
			}
			events = append(events, ev)
			return nil
		})
	if err != nil {
		return StateHeader{}, nil, "", 0, fmt.Errorf("cluster: read state %s: %w", path, err)
	}
	return header, events, terminal, validLen, nil
}

// StateCampaignID reads just enough of a lease log to identify its
// campaign and terminal state — what the daemon's startup rescan needs
// to decide whether to resume, and what to register it as.
func StateCampaignID(path string) (StateHeader, string, error) {
	header, _, terminal, _, err := ReadState(path)
	return header, terminal, err
}
