package bench

// Content addressing for simulation work. The simulator is a
// deterministic function of its configuration — same (config, seed,
// schema version) in, bit-identical result out — so a canonical
// serialization of the configuration is a complete address for the
// result, for anything that wants to memoize or deduplicate
// simulations.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// CanonicalKey hashes a kind tag plus the canonical JSON serialization
// of v into a content address. The kind tag keeps differently-typed
// payloads that happen to serialize identically from colliding. v must
// be JSON-marshalable with deterministic output (plain structs, no maps
// with interface values).
func CanonicalKey(kind string, v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("bench: canonical serialization of %s: %w", kind, err)
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ConfigKey returns the content address of one benchmark run: sha256
// over (JSON schema version, the fully-defaulted Config). Configs with
// a custom scheduling Policy have no canonical serialization — the
// policy is code, not data — and are refused.
func ConfigKey(cfg Config) (string, error) {
	cfg = cfg.WithDefaults()
	if cfg.Policy != nil {
		return "", fmt.Errorf("bench: a config with a custom scheduling policy has no canonical key")
	}
	doc := struct {
		Schema int
		Config Config
	}{SchemaVersion, cfg}
	return CanonicalKey("bench.Config", doc)
}

// ExperimentKey returns the content address of one experiment sweep:
// the experiment's stable ID plus every Options field that shapes the
// exported document. Progress/Collect/Ctx are host-side plumbing and
// excluded — they cannot change a single simulated bit.
func ExperimentKey(e *Experiment, o Options) (string, error) {
	o = o.WithDefaults()
	doc := struct {
		Schema     int
		Experiment string
		Options    OptionsJSON
		Sanitize   bool
	}{
		Schema:     SchemaVersion,
		Experiment: e.ID,
		Options: OptionsJSON{
			Threads:   o.Threads,
			MeasureMs: o.MeasureMs,
			WarmupMs:  o.WarmupMs,
			Seed:      o.Seed,
			Profile:   o.Profile,
		},
		Sanitize: o.Sanitize,
	}
	return CanonicalKey("bench.Experiment", doc)
}
