package main

import (
	"slices"
	"strings"
	"testing"
)

// TestValidateFlags: every selector flag is checked before any cell runs,
// so a core count the machine cannot tile fails with the valid options
// instead of a stack trace from the config layer.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct{ apps, cores, mapper, backend, want string }{
		{"all", "1,6", "random", "sim", "invalid core count 6 (valid: 1, 2, 3, 4, or any multiple of 4)"},
		{"all", "1,x", "random", "sim", `bad -cores value "x"`},
		{"bfs,nope", "1", "random", "sim", `unknown app "nope"`},
		{"all", "1", "nope", "sim", `unknown mapper "nope"`},
		{"all", "1", "random", "nope", `unknown backend "nope"`},
	} {
		if _, _, err := validate(tc.apps, tc.cores, tc.mapper, tc.backend); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("validate(%q, %q, %q, %q) = %v, want an error containing %q",
				tc.apps, tc.cores, tc.mapper, tc.backend, err, tc.want)
		}
	}
	names, cores, err := validate("bfs, sssp", "1, 16", "hint", "rt")
	if err != nil || !slices.Equal(names, []string{"bfs", "sssp"}) || !slices.Equal(cores, []int{1, 16}) {
		t.Errorf("validate of good flags = %v, %v, %v", names, cores, err)
	}
}
