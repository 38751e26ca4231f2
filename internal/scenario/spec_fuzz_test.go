package scenario

import "testing"

// FuzzParseSpec feeds arbitrary bytes, as YAML or JSON, through Parse and
// then Compile. Either may reject the input, but neither may panic, and
// an accepted spec must compile to the grid validation promised: at most
// maxPoints points, one label per point, and no two points on one seed.
// Seeds (testdata/fuzz/FuzzParseSpec): the shipped example scenarios, a
// JSON spec, the sizes_kb range whose step wraps int64, and a
// seed_stride whose multiples wrap onto an earlier point's seed.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, asJSON bool) {
		spec, err := Parse(data, asJSON)
		if err != nil {
			return
		}
		n := spec.gridSize()
		if n > maxPoints {
			t.Fatalf("accepted a %d-point grid, past the %d-point limit", n, maxPoints)
		}
		c, err := Compile(spec)
		if err != nil {
			return
		}
		if len(c.Points) != n || len(c.Meta) != n {
			t.Fatalf("compiled %d points and %d labels, validation counted %d", len(c.Points), len(c.Meta), n)
		}
		seen := make(map[int64]int, n)
		for i, p := range c.Points {
			if j, ok := seen[p.Scenario.Seed]; ok {
				t.Fatalf("points %d and %d share seed %d", j, i, p.Scenario.Seed)
			}
			seen[p.Scenario.Seed] = i
		}
	})
}
