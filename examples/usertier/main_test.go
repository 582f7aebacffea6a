package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the user-tier demo and checks that the user's manager
// caps only the allocation's GPUs, both jobs finish, and the allocation
// is released.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"allocation 1 holds system ranks [0 1 2 3]\n",
		"user policy=proportional budget=4800W grants=1\n",
		"gpu caps inside allocation: [200 200 200 200]; outside: [300 300 300 300]\n",
		"\nmy-gemm ",
		"\nmy-qs ",
		"allocation released; system nodes uncapped again\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}
