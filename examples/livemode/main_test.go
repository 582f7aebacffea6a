package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRun boots the live TCP instance and checks that the collect
// answered every rank with samples of that node's static load.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 6 || !strings.HasPrefix(lines[0], "live TBON up: 5 brokers") {
		t.Fatalf("output:\n%s", out.String())
	}
	for rank, l := range lines[1:] {
		var r, n int
		var host string
		var nodeW, gpuW float64
		if _, err := fmt.Sscanf(l, "rank %d %s %d samples, latest %f W node, %f W gpu",
			&r, &host, &n, &nodeW, &gpuW); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		wantGPU := 4 * (100 + 50*float64(rank))
		if r != rank || host != fmt.Sprintf("(node%d):", rank) || n < 1 ||
			nodeW != 420+wantGPU || gpuW != wantGPU {
			t.Fatalf("rank %d: %q", rank, l)
		}
	}
}
