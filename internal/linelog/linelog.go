// Package linelog is the append-only line log under every durable
// sweep store: the CLI's checkpoint file (core.CheckpointStore) and a
// campaignd job's events.ndjson. A store is a codec over it that checks
// each line when the log opens and encodes the lines it appends.
//
// One torn-tail rule serves every store: opening keeps the leading run
// of lines the store accepts and truncates everything after it — a torn
// final line from a crash between write and fsync, or a line garbled on
// disk. A store's points are pure functions of their keys, so re-running
// whatever the truncation cut off is always correct. Each append is one
// write and one fsync, so a crash leaves the synced bytes plus at most a
// prefix of the last write.
package linelog

import (
	"bytes"
	"io"
	"os"
)

// File is a log's append handle.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OpenFile opens path for appending, creating it if needed. Every log
// file is opened through it: tests replace it to inject write and sync
// failures and to record what reaches the file.
var OpenFile = func(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Log is an open line log; it is not safe for concurrent use.
type Log struct {
	path string
	f    File // opened by the first Append
	err  error
}

// Open reads the log at path (a missing file is an empty log) and hands
// each line to check in order: complete lines with their newline, then a
// torn final line without one. The log keeps the leading run of complete
// lines check accepts and truncates the file after it; a torn line never
// joins the run. An error from check fails Open, leaving the file as it
// is.
func Open(path string, check func(line []byte) (ok bool, err error)) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	size := 0
	for size < len(data) {
		line := data[size:]
		if n := bytes.IndexByte(line, '\n'); n >= 0 {
			line = line[:n+1]
		}
		ok, err := check(line)
		if err != nil {
			return nil, err
		}
		if !ok || line[len(line)-1] != '\n' {
			break
		}
		size += len(line)
	}
	if size < len(data) {
		if err := os.Truncate(path, int64(size)); err != nil {
			return nil, err
		}
	}
	return &Log{path: path}, nil
}

// Append makes data, whole lines, durable at the log's end with one
// write and one fsync; the first call opens the file. The first error
// is sticky.
func (l *Log) Append(data []byte) error {
	if l.err == nil && l.f == nil {
		l.f, l.err = OpenFile(l.path)
	}
	if l.err == nil {
		if _, l.err = l.f.Write(data); l.err == nil {
			l.err = l.f.Sync()
		}
	}
	return l.err
}

// Close releases the append handle, if one is open.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
