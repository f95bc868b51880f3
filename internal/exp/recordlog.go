package exp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// This file is the append-only record log every resumable file in the
// repository is built on: sweep and grid journals (journal.go,
// gridjournal.go), the cluster lease log and cmd/offline's trial
// journals. A log is one header record followed by data records, in one
// of two framings:
//
//	JSONL  := header '\n' (record '\n')*
//	binary := magic version frame*
//	magic  := "TSBL" (4 bytes)
//	version:= 0x01   (1 byte)
//	frame  := uvarint(len(payload)) payload crc32
//	crc32  := 4-byte little-endian IEEE CRC of payload
//
// The header payload is the same JSON document in both framings, so a
// log's identity is format-independent. Readers sniff the magic, so a
// log is always opened by content, never by flag. Writers issue one
// write per record, so a process crash loses at most the record being
// written.
//
// Tear policy, applied by ScanRecords and nowhere else: the intact
// prefix ends at the first record that is incomplete (a JSONL line with
// no newline; a binary frame that runs past EOF, has an oversized length
// or fails its CRC), and at a complete final record the caller rejects
// (a zero-filled or garbled block from filesystem crash recovery).
// Everything past the intact prefix is a tear: readers drop it and
// appenders truncate it away. A rejected record with a complete record
// after it is corruption, not a tear, and fails the read — the log is
// append-only, so damage there means the file was tampered with. Binary
// framing cannot resynchronize past a bad frame, so it ends the prefix
// even when intact frames follow.

// Magic and version of the binary container.
var binMagic = []byte{'T', 'S', 'B', 'L'}

const (
	binVersion   = 0x01
	binHeaderLen = 5 // magic + version byte

	// maxBinRecord bounds a single record's payload so a corrupt length
	// prefix cannot ask the reader to allocate gigabytes. Journal records
	// are tens of bytes; the JSON header with an inline arrival trace can
	// be large, so the cap is generous.
	maxBinRecord = 64 << 20
)

// RecordWriter appends records to a log in either framing, one write
// syscall per record.
type RecordWriter struct {
	f      *os.File
	format Format
	buf    []byte // record assembly buffer, reused across appends
}

// CreateRecordLog starts a new log at path whose first record is the raw
// header payload. It refuses to clobber an existing file (append-only
// history is the whole point); reopen existing logs with OpenRecordLog.
func CreateRecordLog(path string, format Format, header []byte) (*RecordWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w := &RecordWriter{f: f, format: format}
	if format == FormatBinary {
		_, err = f.Write(append(append([]byte(nil), binMagic...), binVersion))
	}
	if err == nil {
		err = w.AppendRecord(header)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return w, nil
}

// OpenRecordLog opens an existing log for appending, first truncating it
// to validLen — the intact-prefix length ScanRecords returned — to drop
// a torn tail.
func OpenRecordLog(path string, format Format, validLen int64) (*RecordWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("truncate torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &RecordWriter{f: f, format: format}, nil
}

// AppendRecord frames one record payload and writes it in a single
// syscall.
func (w *RecordWriter) AppendRecord(payload []byte) error {
	if w.format == FormatBinary {
		w.buf = binary.AppendUvarint(w.buf[:0], uint64(len(payload)))
		w.buf = append(w.buf, payload...)
		w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(payload))
	} else {
		w.buf = append(append(w.buf[:0], payload...), '\n')
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("journal append: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (w *RecordWriter) Close() error { return w.f.Close() }

// ScanRecords streams a log's records without loading the file into
// memory: it sniffs the framing, hands it with the raw header payload to
// header, then each record payload (valid for the duration of the call
// only) to fn, applying the tear policy above — fn's error on the final
// complete record marks a tear, on any earlier one it fails the scan. It
// returns the intact-prefix length: the offset just past the last
// accepted record, header included. A log without a complete header
// record, or a header callback error, fails the scan.
func ScanRecords(path string, header func(format Format, payload []byte) error, fn func(payload []byte) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	// Most logs (lease logs, trial journals, small campaigns) are far
	// below the 1 MiB read buffer; size it to them.
	br := bufio.NewReaderSize(f, int(min(fi.Size()+1, 1<<20)))
	head, err := br.Peek(len(binMagic))
	if err != nil && err != io.EOF {
		return 0, err
	}
	sc := recordScanner{path: path, size: fi.Size(), header: header, fn: fn}
	if string(head) == string(binMagic) {
		err = sc.binary(br)
	} else {
		err = sc.jsonl(br)
	}
	if err != nil {
		return 0, err
	}
	if sc.records == 0 {
		return 0, fmt.Errorf("%s: no header record", path)
	}
	return sc.valid, nil
}

// recordScanner carries one scan's state across records, so both
// framings share the accept/reject bookkeeping in record.
type recordScanner struct {
	path    string
	size    int64 // file size when the scan started
	header  func(Format, []byte) error
	fn      func([]byte) error
	records int   // complete records seen, header included
	valid   int64 // intact-prefix length
	// pending is fn's error on the previous complete record: a tear if no
	// complete record follows, corruption otherwise.
	pending error
}

// record handles one complete record ending at offset end.
func (sc *recordScanner) record(format Format, payload []byte, end int64) error {
	if sc.pending != nil {
		return sc.pending
	}
	sc.records++
	if sc.records == 1 {
		if err := sc.header(format, payload); err != nil {
			return err
		}
	} else if err := sc.fn(payload); err != nil {
		sc.pending = fmt.Errorf("%s: record %d: %w", sc.path, sc.records, err)
		return nil
	}
	sc.valid = end
	return nil
}

// jsonl scans newline-terminated records. A final line cut short (no
// newline) is a tear and never reaches the callbacks.
func (sc *recordScanner) jsonl(br *bufio.Reader) error {
	var off int64
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		off += int64(len(line))
		if err := sc.record(FormatJSONL, line[:len(line)-1], off); err != nil {
			return err
		}
	}
}

// binary scans CRC-checked frames. The first incomplete or damaged frame
// ends the scan.
func (sc *recordScanner) binary(br *bufio.Reader) error {
	hdr := make([]byte, binHeaderLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return fmt.Errorf("%s: truncated binary journal header", sc.path)
	}
	if hdr[4] != binVersion {
		return fmt.Errorf("%s: unknown binary journal version %d", sc.path, hdr[4])
	}
	off := int64(binHeaderLen)
	var buf []byte
	for {
		prefix, err := br.Peek(binary.MaxVarintLen64)
		if err != nil && err != io.EOF {
			return err
		}
		n, w := binary.Uvarint(prefix)
		if w <= 0 || n > maxBinRecord || off+int64(w)+int64(n)+4 > sc.size {
			// EOF, a torn or garbled length prefix, or a frame that runs
			// past EOF (caught before its buffer is allocated)
			return nil
		}
		br.Discard(w)
		need := int(n) + 4
		if cap(buf) < need {
			buf = make([]byte, need)
		}
		buf = buf[:need]
		if _, err := io.ReadFull(br, buf); err != nil {
			if err == io.ErrUnexpectedEOF || err == io.EOF {
				return nil // the file shrank under the scan
			}
			return err
		}
		payload := buf[:n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[n:]) {
			return nil // damaged payload
		}
		off += int64(w) + int64(need)
		if err := sc.record(FormatBinary, payload, off); err != nil {
			return err
		}
	}
}
