package snap

// Error-path hardening: a damaged snapshot file must fail Decode with a
// distinct, descriptive error — and must never hand back a partially
// valid State.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"stacktrack/internal/sched"
)

func sample(t *testing.T) []byte {
	t.Helper()
	st := &State{
		Sched: &sched.State{
			Decisions: 42,
			JitterS0:  7,
			JitterS1:  9,
		},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	b := sample(t)
	st, err := Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if st.Decisions() != 42 || st.Sched.JitterS0 != 7 || st.Sched.JitterS1 != 9 {
		t.Fatalf("round trip mangled state: %+v", st.Sched)
	}
}

func TestBadMagic(t *testing.T) {
	b := sample(t)
	b[0] ^= 0xFF
	st, err := Decode(bytes.NewReader(b))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	if st != nil {
		t.Fatal("partial state returned on bad magic")
	}
}

func TestVersionSkew(t *testing.T) {
	// Version lives right after the magic, big-endian. Every older
	// schema (v1 lacks the mid-scan victim's activity word, v2 keeps its
	// counters in a metrics-registry state) and the next one must not
	// restore.
	vers := []uint32{Version + 1}
	for v := uint32(1); v < Version; v++ {
		vers = append(vers, v)
	}
	for _, ver := range vers {
		b := sample(t)
		binary.BigEndian.PutUint32(b[len(Magic):], ver)
		st, err := Decode(bytes.NewReader(b))
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("v%d: want ErrVersion, got %v", ver, err)
		}
		if st != nil {
			t.Fatalf("v%d: partial state returned on version skew", ver)
		}
	}
}

func TestTruncated(t *testing.T) {
	b := sample(t)
	// Every possible truncation point: header, payload, and checksum.
	for cut := 0; cut < len(b); cut++ {
		st, err := Decode(bytes.NewReader(b[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d/%d: want ErrTruncated, got %v", cut, len(b), err)
		}
		if st != nil {
			t.Fatalf("cut at %d: partial state returned", cut)
		}
	}
}

func TestBitFlip(t *testing.T) {
	b := sample(t)
	// Flip one bit in every payload byte (between the header and the
	// trailing checksum); each must be caught by the CRC.
	start := len(Magic) + 12
	end := len(b) - 4
	for i := start; i < end; i++ {
		c := append([]byte(nil), b...)
		c[i] ^= 0x10
		st, err := Decode(bytes.NewReader(c))
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: want ErrChecksum, got %v", i, err)
		}
		if st != nil {
			t.Fatalf("flip at %d: partial state returned", i)
		}
	}
	// A flipped checksum byte is also a checksum mismatch.
	c := append([]byte(nil), b...)
	c[len(c)-1] ^= 0x01
	if _, err := Decode(bytes.NewReader(c)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped checksum: want ErrChecksum, got %v", err)
	}
}

func TestErrorsAreDistinct(t *testing.T) {
	errs := []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum}
	for i, a := range errs {
		for j, b := range errs {
			if i != j && errors.Is(a, b) {
				t.Fatalf("errors %v and %v are not distinct", a, b)
			}
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/s.stsnap"
	st := &State{Sched: &sched.State{Decisions: 7}}
	if err := WriteFile(path, st); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Decisions() != 7 {
		t.Fatalf("got decisions %d, want 7", got.Decisions())
	}
}
