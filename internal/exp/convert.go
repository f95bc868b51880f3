package exp

import (
	"encoding/json"
	"fmt"
	"os"
)

// ConvertJournal rewrites a journal (sweep or grid — the header decides)
// into the requested format at dst, streaming record by record. The
// header document is carried over verbatim, so the converted journal
// stamps the byte-identical campaign identity; entries are decoded and
// re-encoded, which for JSONL → binary → JSONL reproduces the original
// file byte for byte (records are canonical json.Marshal output in both
// directions). A torn tail in src is dropped, exactly as resume would
// drop it. dst must not exist.
func ConvertJournal(src, dst string, to Format) error {
	var srcFormat Format
	var err error
	var w *RecordWriter
	var buf []byte
	intern := map[string]string{}
	isGrid := false
	// ScanRecords swallows an fn error on the final record (that is the
	// torn-tail contract, and a tail that fails to decode should indeed
	// be dropped) — but a destination write failure must surface even
	// there, so track it separately.
	var writeErr error
	_, err = ScanRecords(src,
		func(format Format, headerRaw []byte) error {
			srcFormat = format
			// The kind marker distinguishes grid journals from sweep
			// journals; validate the header as whichever it claims to be.
			var probe struct {
				Kind string `json:"kind"`
			}
			if err := json.Unmarshal(headerRaw, &probe); err != nil {
				return fmt.Errorf("exp: convert %s: bad journal header: %w", src, err)
			}
			isGrid = probe.Kind == gridJournalKind
			if isGrid {
				if _, err := parseGridHeader(src, headerRaw); err != nil {
					return err
				}
			} else if _, err := parseJournalHeader(src, headerRaw); err != nil {
				return err
			}
			w, err = CreateRecordLog(dst, to, headerRaw)
			return err
		},
		func(payload []byte) error {
			if isGrid {
				inst, err := decodeGridEntry(srcFormat, payload, intern)
				if err != nil {
					return err
				}
				if to == FormatBinary {
					buf = appendBinaryGridEntry(buf[:0], inst)
				} else if buf, err = json.Marshal(inst); err != nil {
					return err
				}
			} else {
				e, err := decodeJournalEntry(srcFormat, payload, intern)
				if err != nil {
					return err
				}
				if to == FormatBinary {
					buf = appendBinaryEntry(buf[:0], e)
				} else if buf, err = json.Marshal(e); err != nil {
					return err
				}
			}
			if werr := w.AppendRecord(buf); werr != nil {
				writeErr = werr
				return werr
			}
			return nil
		})
	if err == nil {
		err = writeErr
	}
	if w == nil {
		return err // dst was never created
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(dst)
	}
	return err
}
