// Package snap is the deterministic checkpoint/restore subsystem: a
// versioned, checksummed snapshot of the complete simulator state at a
// scheduling-decision boundary.
//
// A State aggregates each layer's exported state struct (simulated memory
// and coherence metadata, allocator tables, thread contexts and run
// queues, RNG streams, split-predictor tables, reclamation-scheme
// buffers, and the bench harness's phase machine). Each layer's State
// carries that layer's event counters by value.
// Every Save method copies; a State never aliases live simulator storage,
// which is what makes forking work: restoring one State into any number
// of freshly built instances yields that many independent, bit-identical
// branches of the run.
//
// Two forms:
//
//   - In memory, a *State is the fork token. Same-process branching
//     (ddmin prefix replay, fuzz heap warming) passes States around
//     directly — no serialization on the hot path.
//   - On disk, Encode/Decode wrap the gob-serialized State in a small
//     envelope: magic, schema version, payload length, CRC32. Decode
//     fully validates and deserializes before the caller touches any
//     instance, so a damaged file can never leave a half-restored run —
//     it fails with one of the distinct errors below instead.
package snap

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"stacktrack/internal/alloc"
	"stacktrack/internal/core"
	"stacktrack/internal/mem"
	"stacktrack/internal/reclaim"
	"stacktrack/internal/sched"
)

// Magic identifies a snapshot file.
const Magic = "STSNAP"

// Version is the schema version written by Encode. Decode refuses any
// other version: state structs change shape between schema revisions and
// a silent cross-version restore would corrupt rather than fail.
// Version 2 added core.ScanSnap.Act, the mid-scan victim's activity word.
// Version 3 moved the event counters from a metrics-registry state into
// each layer's State and recorded the run's Config in the harness state.
const Version uint32 = 3

// Decode failure modes, each detectable with errors.Is.
var (
	// ErrBadMagic: the file is not a snapshot at all.
	ErrBadMagic = errors.New("snap: bad magic (not a snapshot file)")
	// ErrVersion: a snapshot from an incompatible schema revision.
	ErrVersion = errors.New("snap: incompatible snapshot schema version")
	// ErrTruncated: the file ends before the declared payload does.
	ErrTruncated = errors.New("snap: truncated snapshot")
	// ErrChecksum: the payload bytes do not match their checksum.
	ErrChecksum = errors.New("snap: checksum mismatch (corrupt snapshot)")
)

// State is the complete simulator state at a decision boundary. Exactly
// one of Core (StackTrack runs) and Reclaim (baseline-scheme runs) is set.
// Harness carries the owning harness's phase-machine state as a
// gob-registered concrete type; snap itself does not know the bench
// package (bench imports snap, not the reverse).
type State struct {
	Mem   *mem.State
	Alloc *alloc.State
	Sched *sched.State

	Core    *core.State
	Reclaim *reclaim.State

	Harness any
}

// Decisions returns the scheduling-decision count the snapshot was taken
// at — the snapshot's position in any schedule log.
func (s *State) Decisions() uint64 { return s.Sched.Decisions }

// Encode writes the snapshot to w: magic, version, payload length, gob
// payload, CRC32 (IEEE) of the payload.
func Encode(w io.Writer, s *State) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return fmt.Errorf("snap: encode: %w", err)
	}
	if _, err := io.WriteString(w, Magic); err != nil {
		return err
	}
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], Version)
	binary.BigEndian.PutUint64(hdr[4:12], uint64(payload.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	sum := crc32.ChecksumIEEE(payload.Bytes())
	if _, err := w.Write(payload.Bytes()); err != nil {
		return err
	}
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], sum)
	_, err := w.Write(tail[:])
	return err
}

// Decode reads and fully validates a snapshot from r. On any failure the
// returned error wraps exactly one of ErrBadMagic, ErrVersion,
// ErrTruncated, or ErrChecksum, and no State is returned — restore is
// all-or-nothing by construction.
func Decode(r io.Reader) (*State, error) {
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("%w: %d-byte header unreadable", ErrTruncated, len(Magic))
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("%w: got %q", ErrBadMagic, magic)
	}
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header cut short", ErrTruncated)
	}
	ver := binary.BigEndian.Uint32(hdr[0:4])
	if ver != Version {
		return nil, fmt.Errorf("%w: file has v%d, this build reads v%d", ErrVersion, ver, Version)
	}
	n := binary.BigEndian.Uint64(hdr[4:12])
	const maxPayload = 1 << 32 // 4 GiB: far above any real snapshot
	if n > maxPayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrTruncated, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: payload declares %d bytes", ErrTruncated, n)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("%w: checksum missing", ErrTruncated)
	}
	want := binary.BigEndian.Uint32(tail[:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: crc32 %08x, expected %08x", ErrChecksum, got, want)
	}
	s := &State{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(s); err != nil {
		// The CRC passed, so this is a schema problem (e.g. an
		// unregistered harness type), not wire damage.
		return nil, fmt.Errorf("snap: decode payload: %w", err)
	}
	return s, nil
}

// WriteFile encodes the snapshot to path, atomically (write temp, rename).
func WriteFile(path string, s *State) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := Encode(f, s); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadFile decodes a snapshot from path.
func ReadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
