package core_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/swarm-sim/swarm/internal/backend"
	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/guest"
)

// TestBackendRegistry pins the values Config.Backend accepts, which the
// backend layer defines: the default comes first (CLIs and swarmd print
// the list in this order), CheckName accepts exactly the listed names
// plus "" (the default), and its error names every valid option.
func TestBackendRegistry(t *testing.T) {
	names := backend.Names()
	if len(names) == 0 || names[0] != "sim" {
		t.Fatalf("Names() = %v, want the default %q first", names, "sim")
	}
	for _, n := range append([]string{""}, names...) {
		if err := backend.CheckName(n); err != nil {
			t.Errorf("CheckName(%q) = %v for a valid name", n, err)
		}
	}
	for _, bad := range []string{"native", "SIM", "Rt", " rt", "rt "} {
		err := backend.CheckName(bad)
		if err == nil {
			t.Errorf("CheckName(%q) = nil, want error", bad)
			continue
		}
		for _, want := range append([]string{fmt.Sprintf("%q", bad)}, names...) {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("CheckName(%q) error %q does not mention %s", bad, err, want)
			}
		}
	}
}

// TestValidateBackend checks where a Config's backend name is validated.
// Config.Validate applies only the rules every engine shares, so it
// accepts the default config and leaves names to the backend layer;
// backend.New rejects an unknown name with an error that names the bad
// value and the valid options.
func TestValidateBackend(t *testing.T) {
	cfg := core.DefaultConfig(4)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DefaultConfig(4).Validate() = %v, want nil", err)
	}
	cfg.Backend = "turbo"
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected backend %q: %v; names are checked by backend.New", cfg.Backend, err)
	}
	built := false
	_, err := backend.New(cfg, func(backend.Backend) ([]guest.TaskDesc, *guest.FnTable) {
		built = true
		return nil, nil
	})
	if err == nil {
		t.Fatal("backend.New accepted an unknown backend")
	}
	if built {
		t.Error("backend.New ran build before rejecting an unknown backend")
	}
	for _, want := range []string{`"turbo"`, "sim", "rt-conservative"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("backend.New error %q does not mention %s", err, want)
		}
	}
}
