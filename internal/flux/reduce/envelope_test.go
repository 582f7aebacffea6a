package reduce_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/reduce"
	"fluxpower/internal/query"
	"fluxpower/internal/stats"
	"fluxpower/internal/variorum"
)

// rawEnvelope is the reply envelope as it was before the aggregate was
// typed: the aggregate marshalled on its own, then embedded as a raw
// message (which json.Marshal re-compacts and HTML-escapes).
type rawEnvelope struct {
	Ranks     int             `json:"ranks"`
	Missing   int             `json:"missing,omitempty"`
	Partial   bool            `json:"partial,omitempty"`
	Aggregate json.RawMessage `json:"aggregate,omitempty"`
}

// checkEnvelope pins one aggregate: the typed envelope's bytes equal
// the raw-message envelope's, and they decode back to the same value.
func checkEnvelope[P any](t *testing.T, name string, agg P) {
	t.Helper()
	for _, tc := range []struct {
		ranks, missing int
		agg            *P
	}{{3, 0, &agg}, {5, 2, &agg}, {0, 4, nil}} {
		got, err := reduce.EncodeReply(tc.ranks, tc.missing, tc.agg)
		if err != nil {
			t.Fatalf("%s: typed encode: %v", name, err)
		}
		old := rawEnvelope{Ranks: tc.ranks, Missing: tc.missing, Partial: tc.missing > 0}
		if tc.agg != nil {
			if old.Aggregate, err = json.Marshal(*tc.agg); err != nil {
				t.Fatal(err)
			}
		}
		want, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: typed envelope\n%s\nraw-message envelope\n%s", name, got, want)
		}
		ranks, missing, back, err := reduce.DecodeReply[P](got)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if ranks != tc.ranks || missing != tc.missing || (back == nil) != (tc.agg == nil) {
			t.Fatalf("%s: decoded ranks=%d missing=%d aggregate=%v", name, ranks, missing, back)
		}
		if back != nil && !reflect.DeepEqual(*back, *tc.agg) {
			t.Fatalf("%s: decoded %+v, want %+v", name, *back, *tc.agg)
		}
	}
}

// TestReduceEnvelopeBytesUnchanged: embedding the typed aggregate in the
// reply envelope puts the same bytes on the wire as the raw-message
// envelope did, for every aggregate type the reduce plane carries.
func TestReduceEnvelopeBytesUnchanged(t *testing.T) {
	checkEnvelope(t, "count", 792)
	agg := stats.Agg{Count: 120, Sum: 98765.4321, Min: 612.5, Max: 1.25e21}
	checkEnvelope(t, "powermon", powermon.AggPartial{
		Nodes:           4,
		Power:           variorum.PowerAgg{Node: agg, CPU: agg, GPU: agg},
		NodeMeanSumW:    3301.0000000000005,
		CPUMeanSumW:     1e-7,
		GPUMeanSumW:     -0.0,
		MemMeanSumW:     310.25,
		MemNodes:        2,
		EnergySumJ:      7.5e6,
		CoarsestTierSec: 60,
	})
	checkEnvelope(t, "query groups", query.Partial{
		Series:   7,
		Complete: true,
		Sources:  []string{"raw", "tier:60"},
		Groups: map[string]query.GroupAgg{
			"job=12":               {Series: 3, SumQ: 1234567890123, Max: 812.0625, Min: 1e-9},
			"job=3":                {Series: 4, SumQ: -5, Max: 0, Min: -0.5},
			"component=<gpu>&cpu'": {Series: 1, SumQ: 1, Max: 1, Min: 1},
		},
	})
	checkEnvelope(t, "query topk", query.Partial{
		Series:   9,
		Complete: false,
		Sources:  []string{"tsdb:600"},
		Top: &stats.TopK{K: 3, Entries: []stats.TopEntry{
			{Key: "component=cpu,rank=4", Value: 201.75},
			{Key: "component=cpu,job=7,rank=1", Value: 1.5e-300},
		}},
	})
}
