package fs

import (
	"fmt"

	"tocttou/internal/sim"
)

// Op identifies a file-system operation for Guard hooks and tracing.
type Op uint8

// The operations the simulated kernel exposes. The numbers are fixed:
// fault plans store them in their operation masks, and sweep keys encode
// those plans, so a removed operation leaves a gap rather than shifting
// the ones after it.
const (
	OpStat    Op = 1
	OpLstat   Op = 2
	OpOpen    Op = 3
	OpCreate  Op = 4
	OpWrite   Op = 6
	OpClose   Op = 7
	OpUnlink  Op = 8
	OpSymlink Op = 9
	OpRename  Op = 11
	OpChmod   Op = 12
	OpChown   Op = 13
)

// opNames is an array (not a map) so the per-syscall String lookup is a
// bounds-checked index rather than a hash probe.
var opNames = [...]string{
	OpStat: "stat", OpLstat: "lstat", OpOpen: "open", OpCreate: "creat",
	OpWrite: "write", OpClose: "close", OpUnlink: "unlink",
	OpSymlink: "symlink", OpRename: "rename",
	OpChmod: "chmod", OpChown: "chown",
}

// String returns the syscall name.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Guard is a kernel-level interposition point consulted around every
// operation. The defense package uses it to implement EDGI-style
// invariant guarding and RaceGuard-style protections; tests use it for
// fault injection.
//
// Path2 is the second path for two-path operations (rename newpath,
// symlink target); otherwise empty.
type Guard interface {
	// Before may veto the operation by returning a non-nil error, which
	// is returned to the caller unchanged.
	Before(t *sim.Task, op Op, path, path2 string, cred Cred) error
	// After observes the operation's outcome.
	After(t *sim.Task, op Op, path, path2 string, cred Cred, err error)
}

// FaultHook injects operation-level failures. When installed via
// Config.Faults it is consulted at every operation's entry (before the
// Guard and the operation body); a non-nil return is handed to the caller
// unchanged, so implementations return errno-carrying PathErrors. The
// fault layer (internal/fault) implements it with a dedicated per-round
// RNG stream; the interface lives here so fs does not import fault.
type FaultHook interface {
	InjectOp(t *sim.Task, op Op, path string) error
}

func (f *FS) guardBefore(t *sim.Task, op Op, path, path2 string, cred Cred) error {
	if f.cfg.Faults != nil {
		if err := f.cfg.Faults.InjectOp(t, op, path); err != nil {
			return err
		}
	}
	if f.guard == nil {
		return nil
	}
	return f.guard.Before(t, op, path, path2, cred)
}

func (f *FS) guardAfter(t *sim.Task, op Op, path, path2 string, cred Cred, err error) {
	if f.guard != nil {
		f.guard.After(t, op, path, path2, cred, err)
	}
}

// enter emits the syscall-entry trace event. The Tracing guard keeps the
// untraced hot path from building (and copying) an Event that the tracer
// nil-check inside Trace would discard.
func (f *FS) enter(t *sim.Task, op Op, path string) {
	if t.Tracing() {
		t.Trace(sim.Event{Kind: sim.EvSyscallEnter, Label: op.String(), Path: path})
	}
}

// exit emits the syscall-exit trace event carrying the errno.
func (f *FS) exit(t *sim.Task, op Op, path string, err error) {
	if t.Tracing() {
		t.Trace(sim.Event{Kind: sim.EvSyscallExit, Label: op.String(), Path: path, Arg: int64(ErrnoOf(err))})
	}
}
