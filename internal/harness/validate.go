package harness

import (
	"fmt"
	"sort"
	"strings"

	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/noc"
)

// optionList joins names in sorted order for error messages: registries
// order names semantically (suite order, default first), but a user
// scanning an error for a typo'd flag wants the alphabet.
func optionList(names []string) string {
	s := append([]string(nil), names...)
	sort.Strings(s)
	return strings.Join(s, ", ")
}

// Up-front flag/request validation, shared by the CLIs and the swarmd
// daemon (-scale, -mapper and -backend values go through
// bench.ParseScale, core.CheckMapper and backend.CheckName). Before these
// helpers, an invalid -app/-mapper/-scale surfaced only once a run
// reached the code that consumed it — after input generation, sometimes
// mid-sweep — as a context-free error. Validating against the registries
// first fails in milliseconds and always names the valid options.

// ResolveApps validates an -app value — a registered name, a comma list
// of names, or "all" — against the bench registry and returns the
// resolved app names in request order ("all" expands to suite order).
func ResolveApps(flagVal string) ([]string, error) {
	valid := optionList(bench.AppNames())
	if strings.TrimSpace(flagVal) == "all" {
		return bench.AppNames(), nil
	}
	var names []string
	for _, name := range strings.Split(flagVal, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := bench.Lookup(name); !ok {
			return nil, fmt.Errorf("unknown app %q (valid: %s; a comma list; or all)", name, valid)
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no app named (valid: %s; a comma list; or all)", valid)
	}
	return names, nil
}

// ValidateCores checks that a core count builds a legal machine: the CMP
// is tiled 4 cores per tile (machines under 4 cores are one smaller
// tile; see noc.Tiling), so the count must be 1-4 or a multiple of 4.
// Without this check the config layer panics during machine construction.
func ValidateCores(n int) error {
	if _, _, ok := noc.Tiling(n); ok {
		return nil
	}
	return fmt.Errorf("invalid core count %d (valid: 1, 2, 3, 4, or any multiple of 4)", n)
}
