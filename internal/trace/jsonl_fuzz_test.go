package trace

import (
	"bytes"
	"reflect"
	"testing"

	"tocttou/internal/sim"
)

// FuzzReadJSONL feeds arbitrary bytes to the trace reader. It must never
// panic, every event it returns must carry a defined kind, and exporting
// the events again must read back the same events. Seeds (testdata/fuzz/
// FuzzReadJSONL): a clean export, a torn last line, an unknown kind.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, e := range events {
			if k, ok := sim.ParseEventKind(e.Kind.String()); !ok || k != e.Kind {
				t.Fatalf("event %d has undefined kind %s", i, e.Kind)
			}
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, events, Filter{}); err != nil {
			t.Fatal(err)
		}
		again, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-reading the export: %v", err)
		}
		if len(events) == 0 && len(again) == 0 {
			return
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("export did not round-trip:\n got %+v\nwant %+v", again, events)
		}
	})
}
