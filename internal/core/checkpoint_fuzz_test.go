package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The sweep identity the committed seed corpus
// (testdata/fuzz/FuzzLoadCheckpoint) is written for. The seeds are a
// version-3 file and a torn one, version-1 and version-2 files the
// loader must reject, a corrupt middle line, a repeated point, a torn
// prefix of the header, a foreign first line, and a file older builds
// wrote in finishing order (points 1, 0, 2, 3), of which nothing is
// restored.
const (
	fuzzFingerprint = 0x5eed
	fuzzPoints      = 4
)

// validCheckpoint is the oracle for what opening a checkpoint keeps of
// data. A file with no complete line that is a prefix of the sweep's
// header holds nothing (a torn creation); any other first line that is
// not the sweep's complete format-3 header rejects the file. After the
// header, the leading complete lines that each decode as an entry for
// the next point in range, 0, 1, 2, … in turn, are the restored points,
// and size is the length of the header and those lines.
func validCheckpoint(data []byte) (restored []CampaignResult, size int, rejected bool) {
	header := fmt.Sprintf("{\"version\":3,\"fingerprint\":%d,\"points\":%d}\n", fuzzFingerprint, fuzzPoints)
	lines := strings.SplitAfter(string(data), "\n")
	if !strings.HasSuffix(lines[0], "\n") {
		return nil, 0, !strings.HasPrefix(header, lines[0])
	}
	var h checkpointHeader
	if json.Unmarshal([]byte(lines[0]), &h) != nil || h != (checkpointHeader{checkpointVersion, fuzzFingerprint, fuzzPoints}) {
		return nil, 0, true
	}
	size = len(lines[0])
	for _, line := range lines[1:] {
		var e struct {
			Point  *int            `json:"point"`
			Result *CampaignResult `json:"result"`
		}
		if !strings.HasSuffix(line, "\n") || json.Unmarshal([]byte(line), &e) != nil || e.Point == nil || e.Result == nil {
			break
		}
		if *e.Point != len(restored) || *e.Point >= fuzzPoints {
			break
		}
		restored = append(restored, *e.Result)
		size += len(line)
	}
	return restored, size, false
}

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint loader as
// an existing checkpoint file. It must never panic. A rejected file is
// left as it is. Otherwise the store must restore exactly the leading
// run of entries for points 0, 1, 2, … and leave the file holding
// exactly the header and those lines, so the next append starts on a
// line boundary.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, size, rejected := validCheckpoint(data)
		store, err := openCheckpoint(path, fuzzFingerprint, fuzzPoints)
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if rejected {
			if err == nil || !bytes.Equal(got, data) {
				t.Fatalf("rejected file: err %v, file changed %v; want an error and the file untouched", err, !bytes.Equal(got, data))
			}
			return
		}
		if err != nil {
			t.Fatalf("openCheckpoint: %v", err)
		}
		defer store.Close()
		if got := store.Restored(); !slices.Equal(got, want) {
			t.Fatalf("restored %+v, want %+v", got, want)
		}
		if !bytes.Equal(got, data[:size]) {
			t.Fatalf("file after open = %q, want its valid prefix %q", got, data[:size])
		}
	})
}
