package fs

import (
	"errors"
	"testing"

	"tocttou/internal/sim"
)

// TestErrorPathsTable pins errnos on failure paths the success-oriented
// tests never reach: opening a file the caller cannot read, writing
// through a read-only descriptor, and stat'ing a name whose inode was
// unlinked while a descriptor kept it alive.
func TestErrorPathsTable(t *testing.T) {
	cases := []struct {
		name string
		uid  int
		run  func(task *sim.Task, f *FS) error
		want Errno
	}{
		{
			name: "open denied by owner-only mode",
			uid:  1000,
			run: func(task *sim.Task, f *FS) error {
				_, err := f.Open(task, "/etc/shadow", ORead, 0)
				return err
			},
			want: EACCES,
		},
		{
			name: "open for write denied on read-only mode",
			uid:  1000,
			run: func(task *sim.Task, f *FS) error {
				_, err := f.Open(task, "/etc/passwd", OWrite, 0)
				return err
			},
			want: EACCES,
		},
		{
			name: "write on read-only descriptor",
			uid:  0,
			run: func(task *sim.Task, f *FS) error {
				fl, err := f.Open(task, "/etc/passwd", ORead, 0)
				if err != nil {
					return err
				}
				defer fl.Close(task)
				return fl.Write(task, 16)
			},
			want: EBADF,
		},
		{
			name: "stat after unlink with live descriptor",
			uid:  0,
			run: func(task *sim.Task, f *FS) error {
				fl, err := f.Open(task, "/etc/passwd", ORead, 0)
				if err != nil {
					return err
				}
				defer fl.Close(task)
				if err := f.Unlink(task, "/etc/passwd"); err != nil {
					return err
				}
				// The open descriptor keeps the inode alive, but the
				// name is gone: path-based stat must miss.
				if err := fl.Chmod(task, 0o600); err != nil {
					return err
				}
				_, err = f.Stat(task, "/etc/passwd")
				return err
			},
			want: ENOENT,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			harness(t, 1, defCfg(), c.uid, 0, func(task *sim.Task, f *FS) {
				f.MustMkdirAll("/etc", 0o755, 0, 0)
				f.MustWriteFile("/etc/passwd", 512, 0o644, 0, 0)
				f.MustWriteFile("/etc/shadow", 512, 0o600, 0, 0)
				err := c.run(task, f)
				if !errors.Is(err, c.want) {
					t.Errorf("err = %v, want %v", err, c.want)
				}
			})
		})
	}
}

// opFaultHook fails every occurrence of one operation with a fixed errno
// and records the injection order relative to the guard.
type opFaultHook struct {
	op    Op
	errno Errno
	log   *[]string
}

func (h opFaultHook) InjectOp(t *sim.Task, op Op, path string) error {
	if op != h.op {
		return nil
	}
	*h.log = append(*h.log, "fault:"+op.String())
	return pathErr(op.String(), path, h.errno)
}

// logGuard records every Before consultation.
type logGuard struct{ log *[]string }

func (g logGuard) Before(t *sim.Task, op Op, path, path2 string, cred Cred) error {
	*g.log = append(*g.log, "guard:"+op.String())
	return nil
}

func (g logGuard) After(*sim.Task, Op, string, string, Cred, error) {}

// TestFaultHookPrecedesGuard: an installed FaultHook fires at operation
// entry, before the Guard sees the operation — an injected failure is a
// world the defense layer never observed, exactly like a device error
// below the VFS interposition point.
func TestFaultHookPrecedesGuard(t *testing.T) {
	var log []string
	cfg := defCfg()
	cfg.Faults = opFaultHook{op: OpOpen, errno: EIO, log: &log}
	harness(t, 1, cfg, 0, 0, func(task *sim.Task, f *FS) {
		f.SetGuard(logGuard{log: &log})
		f.MustWriteFile("/target", 64, 0o644, 0, 0)
		if _, err := f.Open(task, "/target", ORead, 0); !errors.Is(err, EIO) {
			t.Fatalf("open err = %v, want injected EIO", err)
		}
		if _, err := f.Stat(task, "/target"); err != nil {
			t.Fatalf("un-injected stat failed: %v", err)
		}
	})
	// The faulted open must appear in the log without a guard:open ever
	// following it; the clean stat reaches the guard normally.
	sawFault, sawGuardOpen, sawGuardStat := false, false, false
	for _, e := range log {
		switch e {
		case "fault:open":
			sawFault = true
		case "guard:open":
			sawGuardOpen = true
		case "guard:stat":
			sawGuardStat = true
		}
	}
	if !sawFault {
		t.Error("fault hook never fired for open")
	}
	if sawGuardOpen {
		t.Error("guard observed an operation the fault hook already failed")
	}
	if !sawGuardStat {
		t.Error("guard missed the clean stat")
	}
}
