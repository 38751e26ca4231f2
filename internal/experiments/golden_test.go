package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenSnapshots runs every experiment with a committed snapshot in
// testdata/golden at its full default budget and compares the rendering
// byte for byte — the in-process twin of `make golden-check`. The
// directory is the list: a snapshot named <experiment>.txt is checked.
func TestGoldenSnapshots(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden snapshots found")
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".txt")
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(name, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := res.Render(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s drifted from %s:\n--- got ---\n%s", name, path, got.String())
			}
		})
	}
}
