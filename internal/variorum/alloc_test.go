package variorum

import (
	"reflect"
	"testing"
	"time"

	"fluxpower/internal/hw"
	"fluxpower/internal/simtime"
)

// TestGetNodePowerSingleBackingAllocation pins the hot sample path's
// allocation budget: the document's retained slices must come from one
// backing array, so a sample costs one allocation, not one per slice.
func TestGetNodePowerSingleBackingAllocation(t *testing.T) {
	lassen := lassenNode(t)
	tioga := tiogaNode(t)
	var sink NodePower
	lassenAllocs := testing.AllocsPerRun(100, func() {
		sink = GetNodePower(lassen, simtime.Time(time.Second))
	})
	tiogaAllocs := testing.AllocsPerRun(100, func() {
		sink = GetNodePower(tioga, simtime.Time(time.Second))
	})
	_ = sink
	if lassenAllocs > 1 {
		t.Fatalf("lassen GetNodePower: %.1f allocations per sample, want <=1", lassenAllocs)
	}
	if tiogaAllocs > 1 {
		t.Fatalf("tioga GetNodePower: %.1f allocations per sample, want <=1", tiogaAllocs)
	}
}

// TestGetNodePowerIntoReusesScratch pins the read-into variant: after
// the first call it allocates nothing, and it reads exactly what
// GetNodePower reads from an identical node.
func TestGetNodePowerIntoReusesScratch(t *testing.T) {
	for _, mk := range []func(*testing.T) *hw.Node{lassenNode, tiogaNode} {
		fresh, reused := mk(t), mk(t)
		var scratch []float64
		for sec := 1; sec <= 5; sec++ {
			now := simtime.Time(time.Duration(sec) * time.Second)
			want, got := GetNodePower(fresh, now), GetNodePowerInto(reused, now, &scratch)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at %d s: read into scratch %+v, fresh %+v", fresh.Name(), sec, got, want)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			_ = GetNodePowerInto(reused, simtime.Time(time.Second), &scratch)
		})
		if allocs != 0 {
			t.Fatalf("%s GetNodePowerInto: %.1f allocations per sample, want 0", reused.Name(), allocs)
		}
	}
}
