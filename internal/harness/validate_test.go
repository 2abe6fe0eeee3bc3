package harness

import (
	"strings"
	"testing"

	"github.com/swarm-sim/swarm/internal/bench"
)

// TestValidateFlags is the table-driven sweep over the three user-facing
// selector flags (-app, -mapper, -scale) plus the numeric knobs: invalid
// values must fail up front with the valid options in the message.
func TestValidateFlags(t *testing.T) {
	tests := []struct {
		flag    string
		value   string
		wantErr bool
		wantIn  []string // substrings the error (or success) must satisfy
	}{
		// -app
		{"app", "sssp", false, nil},
		{"app", "all", false, nil},
		{"app", "bfs,sssp, silo", false, nil},
		{"app", "ssp", true, []string{`unknown app "ssp"`, "sssp", "bfs", "silo"}},
		{"app", "", true, []string{"no app named", "sssp"}},
		{"app", ",,", true, []string{"no app named"}},
		{"app", "bfs,nope", true, []string{`unknown app "nope"`, "valid:"}},

		// -mapper
		{"mapper", "random", false, nil},
		{"mapper", "hint", false, nil},
		{"mapper", "", false, nil}, // default
		{"mapper", "rnd", true, []string{`unknown mapper "rnd"`, "(valid: hint, random)"}},
		{"mapper", "stealing", true, []string{`unknown mapper "stealing"`, "(valid: hint, random)"}},
		{"mapper", "roundrobin", true, []string{`unknown mapper "roundrobin"`, "(valid: hint, random)"}},

		// -scale
		{"scale", "tiny", false, nil},
		{"scale", "small", false, nil},
		{"scale", "medium", false, nil},
		{"scale", "large", false, nil},
		{"scale", "huge", true, []string{`unknown scale "huge"`, "tiny", "small", "medium", "large"}},

		// -backend
		{"backend", "", false, nil}, // default simulator
		{"backend", "sim", false, nil},
		{"backend", "rt", false, nil},
		{"backend", "rt-conservative", false, nil},
		{"backend", "native", true, []string{`unknown backend "native"`, "sim", "rt", "rt-conservative"}},
		{"backend", "RT", true, []string{`unknown backend "RT"`, "valid:"}},
	}
	for _, tc := range tests {
		var err error
		switch tc.flag {
		case "app":
			_, err = ResolveApps(tc.value)
		case "mapper":
			err = ValidateMapper(tc.value)
		case "scale":
			_, err = bench.ParseScale(tc.value)
		case "backend":
			err = ValidateBackend(tc.value)
		}
		if (err != nil) != tc.wantErr {
			t.Errorf("-%s=%q: err = %v, wantErr = %v", tc.flag, tc.value, err, tc.wantErr)
			continue
		}
		for _, want := range tc.wantIn {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("-%s=%q: error %q does not mention %q", tc.flag, tc.value, err, want)
			}
		}
	}
}

// TestValidatorMessagesSorted pins the EXACT error text: option lists in
// validator errors are alphabetical (registries stay in semantic order —
// suite order for apps, default-first for mappers and backends — but a
// user scanning an error for a typo wants the alphabet, and goldenizing
// the text keeps every new app/backend/mapper registration honest).
func TestValidatorMessagesSorted(t *testing.T) {
	const appList = "astar, bfs, color, des, dsssp, incsssp, kcore, msf, msort, setcover, silo, sssp, stream, treebuild"
	tests := []struct {
		name string
		err  error
		want string
	}{
		{"app", func() error { _, err := ResolveApps("nope"); return err }(),
			`unknown app "nope" (valid: ` + appList + `; a comma list; or all)`},
		{"app-empty", func() error { _, err := ResolveApps(""); return err }(),
			`no app named (valid: ` + appList + `; a comma list; or all)`},
		{"mapper", ValidateMapper("rnd"),
			`unknown mapper "rnd" (valid: hint, random)`},
		{"mapper-stealing", ValidateMapper("stealing"),
			`unknown mapper "stealing" (valid: hint, random)`},
		{"mapper-roundrobin", ValidateMapper("roundrobin"),
			`unknown mapper "roundrobin" (valid: hint, random)`},
		{"backend", ValidateBackend("native"),
			`unknown backend "native" (valid: rt, rt-conservative, sim)`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.err == nil {
				t.Fatal("want error")
			}
			if got := tc.err.Error(); got != tc.want {
				t.Fatalf("error text:\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

func TestResolveAppsOrder(t *testing.T) {
	names, err := ResolveApps("silo, bfs")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "silo" || names[1] != "bfs" {
		t.Fatalf("ResolveApps preserved order wrongly: %v", names)
	}
}

func TestValidateCores(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 16, 64} {
		if err := ValidateCores(n); err != nil {
			t.Errorf("ValidateCores(%d): %v", n, err)
		}
	}
	for _, n := range []int{0, -1, 5, 6, 7, 9, 63} {
		err := ValidateCores(n)
		if err == nil {
			t.Errorf("ValidateCores(%d): want error", n)
		} else if !strings.Contains(err.Error(), "multiple of 4") {
			t.Errorf("ValidateCores(%d): error %q does not name the valid counts", n, err)
		}
	}
}
