package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestSanitizeBitIdenticalJSON is the sanitizer's read-only guarantee:
// running E1a's list configurations with the race detector and shadow
// sanitizer enabled must export byte-for-byte the same point JSON as
// running without them. Only the report bundle (Result.San, not
// exported) may differ.
func TestSanitizeBitIdenticalJSON(t *testing.T) {
	o := Options{Threads: []int{1, 2, 4}, MeasureMs: 1, WarmupMs: 0.2}.WithDefaults()
	schemes := []string{SchemeOriginal, SchemeHazards, SchemeEpoch, SchemeStackTrack, SchemeDTA}

	run := func(cfg Config, sanitize bool) []byte {
		cfg.Sanitize = sanitize
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s/%d threads (sanitize=%v): %v", cfg.Scheme, cfg.Threads, sanitize, err)
		}
		b, err := json.MarshalIndent(pointJSON(cfg.Scheme, cfg.Threads, res), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	for _, n := range o.Threads {
		for _, s := range schemes {
			cfg := o.cfg(StructList, s, n)
			plain := run(cfg, false)
			sanitized := run(cfg, true)
			if !bytes.Equal(plain, sanitized) {
				t.Fatalf("%s/%d threads: enabling the sanitizer changed the exported JSON:\n--- without ---\n%.2000s\n--- with ---\n%.2000s",
					s, n, plain, sanitized)
			}
		}
	}
}

// TestSanitizeCleanOnSoundSchemes: a correct reclamation scheme must
// produce zero sanitizer findings — no unordered conflicting accesses
// (its protocol is the synchronization the detector tracks) and no
// touches of freed or redzone words.
func TestSanitizeCleanOnSoundSchemes(t *testing.T) {
	for _, scheme := range []string{SchemeStackTrack, SchemeHazards, SchemeEpoch, SchemeDTA, SchemeRefCount, SchemeOriginal} {
		for _, structure := range []string{StructList, StructHash} {
			cfg := Config{
				Structure:     structure,
				Scheme:        scheme,
				Threads:       4,
				InitialSize:   64,
				KeyRange:      128,
				MutatePct:     40,
				WarmupCycles:  1,
				MeasureCycles: 2_000_000,
				Sanitize:      true,
				Validate:      true,
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", scheme, structure, err)
			}
			if res.San == nil {
				t.Fatalf("%s/%s: Sanitize set but Result.San is nil", scheme, structure)
			}
			if !res.San.Clean() {
				t.Errorf("%s/%s: sanitizer findings on a sound scheme:\n%s", scheme, structure, res.San)
			}
			if res.UAFReads != 0 {
				t.Errorf("%s/%s: %d poison reads", scheme, structure, res.UAFReads)
			}
		}
	}
}
