package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestRegistryMatchesManifest holds the metric and workload lists the
// program reports equal to the ones BENCHMARK.json declares.
func TestRegistryMatchesManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		name string
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{"end_to_end", m.EndToEnd, endToEnd}, {"per_layer", m.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: manifest lists %d metrics, program has %d", c.name, len(c.got), len(c.want))
		}
		for i, g := range c.got {
			if w := c.want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: manifest %+v, program %+v", c.name, i, g, w)
			}
		}
	}
}

// TestStreamsDeterministic: the same seed gives byte-identical request
// streams, another seed a different one.
func TestStreamsDeterministic(t *testing.T) {
	streams := []struct {
		name string
		gen  func(seed int64) [][]byte
	}{
		{"zipf order", func(seed int64) [][]byte {
			var b []byte
			for _, u := range zipfOrder(seed) {
				b = append(b, byte(u))
			}
			return [][]byte{b}
		}},
		{"cold", func(seed int64) [][]byte { return coldBodies(seed, 2000) }},
	}
	for _, s := range streams {
		a, b, c := s.gen(1), s.gen(1), s.gen(2)
		if !bytes.Equal(bytes.Join(a, nil), bytes.Join(b, nil)) {
			t.Errorf("%s: seed 1 gave two different streams", s.name)
		}
		if bytes.Equal(bytes.Join(a, nil), bytes.Join(c, nil)) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", s.name)
		}
	}
}

// TestColdKeysDistinct: serve-cold is cold by the server's own
// definition — no two requests share a canonical key.
func TestColdKeysDistinct(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		if err := distinctKeys(append(coldWarmupBodies(), coldBodies(seed, 8000)...)); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
