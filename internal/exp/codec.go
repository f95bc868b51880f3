package exp

import (
	"encoding/binary"
	"fmt"
	"math"
	"unicode/utf8"
)

// This file is the journal codec seam: the Format knob every journal
// creation path threads through (CLI flag, daemon spec, cluster config)
// and the compact binary encodings of the two record types. The framing
// and the one record reader live in recordlog.go.
//
// The two formats carry the same records under the same coordinate Keys;
// only the framing and per-record encoding differ. The header record is
// the identical JSON document in both, so campaign identity — and every
// spec-equality check built on it (resume, merge, cluster adoption) — is
// format-independent. Readers sniff the container magic, so a journal is
// always opened by content, never by flag.

// Format selects a journal's on-disk encoding.
type Format int

const (
	// FormatJSONL is the interoperable default: one JSON record per line.
	FormatJSONL Format = iota
	// FormatBinary is the compact length-prefixed binary codec
	// (recordlog.go): a version byte up front, CRC per record.
	FormatBinary
)

// String renders the format the way specs and flags spell it.
func (f Format) String() string {
	switch f {
	case FormatJSONL:
		return "jsonl"
	case FormatBinary:
		return "binary"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat parses a journal format name. The empty string means the
// default (JSONL), so optional spec fields and flags parse directly.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "", "jsonl":
		return FormatJSONL, nil
	case "binary", "bin":
		return FormatBinary, nil
	default:
		return 0, fmt.Errorf("exp: unknown journal format %q (want jsonl or binary)", s)
	}
}

// ---- entry encodings -------------------------------------------------------
//
// Binary records are plain field-by-field encodings — varints for the
// integers, uvarint-length-prefixed bytes for the strings, a fixed 8-byte
// IEEE-754 image for the one float — with no per-record schema: the
// journal header pins the record type (sweep vs grid) and the container
// version byte pins the layout.

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decodeString reads one length-prefixed string, interning the result so
// a replay of a million instances holds one copy of each model and
// heuristic name (the map[string]string lookup on a []byte key does not
// allocate).
func decodeString(b []byte, intern map[string]string) (string, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return "", nil, fmt.Errorf("truncated string")
	}
	raw := b[w : w+int(n)]
	s, ok := intern[string(raw)]
	if !ok {
		// JSON cannot carry invalid UTF-8, so neither may a record that
		// must convert between the formats unchanged.
		if !utf8.Valid(raw) {
			return "", nil, fmt.Errorf("invalid UTF-8 string")
		}
		s = string(raw)
		intern[s] = s
	}
	return s, b[w+int(n):], nil
}

func decodeVarint(b []byte) (int64, []byte, error) {
	v, w := binary.Varint(b)
	if w <= 0 {
		return 0, nil, fmt.Errorf("truncated varint")
	}
	return v, b[w:], nil
}

// appendBinaryEntry encodes one sweep journal entry.
func appendBinaryEntry(b []byte, e journalEntry) []byte {
	b = appendString(b, e.Model)
	b = appendString(b, e.Heuristic)
	b = binary.AppendVarint(b, int64(e.Ncom))
	b = binary.AppendVarint(b, int64(e.Wmin))
	b = binary.AppendVarint(b, int64(e.Scenario))
	b = binary.AppendVarint(b, int64(e.Trial))
	b = binary.AppendVarint(b, e.Makespan)
	var flags byte
	if e.Failed {
		flags = 1
	}
	return append(b, flags)
}

// decodeBinaryEntry decodes one sweep journal entry. intern deduplicates
// the model and heuristic strings across records.
func decodeBinaryEntry(b []byte, intern map[string]string) (journalEntry, error) {
	var e journalEntry
	var err error
	if e.Model, b, err = decodeString(b, intern); err != nil {
		return e, err
	}
	if e.Heuristic, b, err = decodeString(b, intern); err != nil {
		return e, err
	}
	var v int64
	if v, b, err = decodeVarint(b); err != nil {
		return e, err
	}
	e.Ncom = int(v)
	if v, b, err = decodeVarint(b); err != nil {
		return e, err
	}
	e.Wmin = int(v)
	if v, b, err = decodeVarint(b); err != nil {
		return e, err
	}
	e.Scenario = int(v)
	if v, b, err = decodeVarint(b); err != nil {
		return e, err
	}
	e.Trial = int(v)
	if e.Makespan, b, err = decodeVarint(b); err != nil {
		return e, err
	}
	if len(b) != 1 {
		return e, fmt.Errorf("bad entry tail (%d bytes)", len(b))
	}
	e.Failed = b[0]&1 != 0
	return e, nil
}

// appendBinaryGridEntry encodes one grid journal instance.
func appendBinaryGridEntry(b []byte, in GridInstance) []byte {
	b = appendString(b, in.Arrival)
	b = appendString(b, in.Admission)
	b = appendString(b, in.Preemption)
	b = binary.AppendVarint(b, int64(in.Trial))
	b = binary.AppendVarint(b, int64(in.Apps))
	b = binary.AppendVarint(b, int64(in.Completed))
	b = binary.AppendVarint(b, int64(in.Missed))
	b = binary.AppendVarint(b, int64(in.Preempted))
	b = binary.AppendVarint(b, in.RespSum)
	b = binary.AppendVarint(b, in.Makespan)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(in.SlowSum))
}

// decodeBinaryGridEntry decodes one grid journal instance.
func decodeBinaryGridEntry(b []byte, intern map[string]string) (GridInstance, error) {
	var in GridInstance
	var err error
	if in.Arrival, b, err = decodeString(b, intern); err != nil {
		return in, err
	}
	if in.Admission, b, err = decodeString(b, intern); err != nil {
		return in, err
	}
	if in.Preemption, b, err = decodeString(b, intern); err != nil {
		return in, err
	}
	var v int64
	for _, dst := range []*int{&in.Trial, &in.Apps, &in.Completed, &in.Missed, &in.Preempted} {
		if v, b, err = decodeVarint(b); err != nil {
			return in, err
		}
		*dst = int(v)
	}
	if in.RespSum, b, err = decodeVarint(b); err != nil {
		return in, err
	}
	if in.Makespan, b, err = decodeVarint(b); err != nil {
		return in, err
	}
	if len(b) != 8 {
		return in, fmt.Errorf("bad grid entry tail (%d bytes)", len(b))
	}
	in.SlowSum = math.Float64frombits(binary.LittleEndian.Uint64(b))
	if math.IsNaN(in.SlowSum) || math.IsInf(in.SlowSum, 0) {
		return in, fmt.Errorf("non-finite slowdown sum") // JSON cannot carry it
	}
	return in, nil
}
