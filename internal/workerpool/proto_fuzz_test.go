package workerpool

import (
	"bytes"
	"io"
	"os/exec"
	"reflect"
	"slices"
	"testing"

	"tocttou/internal/core"
)

// fuzzFPs are the point fingerprints of FuzzWorkerMessages' four-point
// grid; the seeds (testdata/fuzz/FuzzWorkerMessages) are written for them.
var fuzzFPs = []uint64{0x1111111111111111, 0x2222222222222222, 0x3333333333333333, 0x4444444444444444}

// FuzzWorkerMessages feeds arbitrary bytes, as one worker's stdout, through
// the supervisor's reader (lineReader.next) and its handling of each
// decoded message (handleMsg). The worker starts loaded and holding lease
// 1 over points 0 and 1, with points 2 and 3 pending, so an ack moves it
// on to lease 2. No input may panic either half. A torn final line is
// never read: the stream yields what its prefix up to the last newline
// yields. Every point the supervisor commits arrived in a message with
// the point's fingerprint, an index in the grid and the lease the worker
// held when the message arrived, and is committed at most once. Once the
// supervisor has killed the worker, no message it sends changes the
// lease, the pending queue, the backoff streak or the commits: the exit
// event settles all of them.
func FuzzWorkerMessages(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		msgs, err := readMessages(stream)
		cut := stream[:bytes.LastIndexByte(stream, '\n')+1]
		if cutMsgs, cutErr := readMessages(cut); !reflect.DeepEqual(msgs, cutMsgs) || (err == io.EOF) != (cutErr == io.EOF) {
			t.Fatalf("a torn final line changed what was read: %d messages (%v) whole, %d (%v) cut at the last newline", len(msgs), err, len(cutMsgs), cutErr)
		}

		var (
			cur     *Message
			held    []int
			heldID  int
			commits = make(map[int]int)
		)
		r := &fleetRun{
			cfg:       Config{Logf: func(string, ...any) {}},
			points:    make([]core.SweepPoint, len(fuzzFPs)),
			fps:       fuzzFPs,
			committed: make(map[int]core.CampaignResult),
			pending:   []int{2, 3},
			leaseSeq:  1,
			// A streak in progress, so a stray reset shows.
			failStreak: 5,
			onPoint: func(idx int, res core.CampaignResult) error {
				if idx < 0 || idx >= len(fuzzFPs) {
					t.Fatalf("committed out-of-range point %d", idx)
				}
				if cur.FP != fpString(fuzzFPs[idx]) {
					t.Fatalf("committed point %d with fingerprint %q, want %s", idx, cur.FP, fpString(fuzzFPs[idx]))
				}
				if cur.Lease != heldID || !slices.Contains(held, idx) {
					t.Fatalf("committed point %d of lease %d while the worker held lease %d over %v", idx, cur.Lease, heldID, held)
				}
				if commits[idx]++; commits[idx] > 1 {
					t.Fatalf("committed point %d twice", idx)
				}
				return nil
			},
		}
		p := &proc{cmd: &exec.Cmd{}, stdin: nopWriteCloser{io.Discard}, loaded: true, lease: []int{0, 1}, leaseID: 1}
		for _, msg := range msgs {
			cur, held, heldID = msg, append([]int(nil), p.lease...), p.leaseID
			killed, pending, streak, ncommits := p.killed, slices.Clone(r.pending), r.failStreak, len(r.committed)
			if err := r.handleMsg(p, msg); err != nil {
				t.Fatalf("handling %+v: %v", msg, err)
			}
			if killed && (p.leaseID != heldID || !slices.Equal(p.lease, held) || !slices.Equal(r.pending, pending) || r.failStreak != streak || len(r.committed) != ncommits) {
				t.Fatalf("%+v from a killed worker changed its state: lease %d %v -> %d %v, pending %v -> %v, failStreak %d -> %d, commits %d -> %d",
					msg, heldID, held, p.leaseID, p.lease, pending, r.pending, streak, r.failStreak, ncommits, len(r.committed))
			}
		}
	})
}

// readMessages reads a stream as the supervisor's reader goroutine does:
// messages until the first error, which ends the worker.
func readMessages(stream []byte) ([]*Message, error) {
	lr := newLineReader(bytes.NewReader(stream))
	var msgs []*Message
	for {
		msg, err := lr.next()
		if err != nil {
			return msgs, err
		}
		msgs = append(msgs, msg)
	}
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }
