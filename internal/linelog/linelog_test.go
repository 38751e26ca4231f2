package linelog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenKeepsLeadingRun pins the one torn-tail rule: the log keeps the
// leading run of complete lines its check accepts and truncates the
// rest, a torn line never joins the run, and a check error leaves the
// file untouched.
func TestOpenKeepsLeadingRun(t *testing.T) {
	errForeign := errors.New("foreign")
	// check accepts "ok" lines, rejects "bad" ones and fails the open on
	// "foreign"; the torn "ok" line tests that acceptance cannot keep it.
	check := func(line []byte) (bool, error) {
		switch string(bytes.TrimSuffix(line, []byte{'\n'})) {
		case "ok":
			return true, nil
		case "foreign":
			return false, errForeign
		}
		return false, nil
	}
	for _, tc := range []struct {
		name, data, want string
		err              error
	}{
		{"empty", "", "", nil},
		{"whole", "ok\nok\n", "ok\nok\n", nil},
		{"torn tail", "ok\nok", "ok\n", nil},
		{"bad middle", "ok\nbad\nok\n", "ok\n", nil},
		{"foreign torn", "ok\nforeign", "ok\nforeign", errForeign},
		{"foreign first", "foreign\nok\n", "foreign\nok\n", errForeign},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := Open(path, check)
			if !errors.Is(err, tc.err) {
				t.Fatalf("Open: err %v, want %v", err, tc.err)
			}
			if got, _ := os.ReadFile(path); string(got) != tc.want {
				t.Fatalf("file after Open = %q, want %q", got, tc.want)
			}
			if err != nil {
				return
			}
			if err := l.Append([]byte("ok\n")); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(path); string(got) != tc.want+"ok\n" {
				t.Fatalf("file after Append = %q, want %q", got, tc.want+"ok\n")
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// failingFile fails every write.
type failingFile struct{ File }

func (failingFile) Write([]byte) (int, error) { return 0, errors.New("injected") }

// TestAppendOpensLazilyAndErrorsStick opens a missing log, which creates
// no file until the first Append; a failed write is then returned by
// every later Append without another call.
func TestAppendOpensLazilyAndErrorsStick(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path, func([]byte) (bool, error) { return true, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Open created the file (stat err %v)", err)
	}
	opens := 0
	orig := OpenFile
	OpenFile = func(path string) (File, error) {
		opens++
		f, err := orig(path)
		return failingFile{f}, err
	}
	defer func() { OpenFile = orig }()
	first := l.Append([]byte("a\n"))
	if first == nil {
		t.Fatal("failed write returned no error")
	}
	if err := l.Append([]byte("b\n")); err != first || opens != 1 {
		t.Fatalf("second Append: err %v after %d opens, want the first error %v after 1", err, opens, first)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
