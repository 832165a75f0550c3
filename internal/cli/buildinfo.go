package cli

import (
	"runtime"
	"runtime/debug"

	"stacktrack/internal/bench"
)

// Provenance returns the toolchain and VCS commit that built this binary,
// as result metadata. It reads the binary's embedded build info, so it
// works for `go run` and installed binaries alike; outside a VCS checkout
// the commit fields stay empty rather than failing.
func Provenance() *bench.RunMeta {
	m := &bench.RunMeta{GoVersion: runtime.Version()}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				m.Dirty = s.Value == "true"
			}
		}
	}
	return m
}
