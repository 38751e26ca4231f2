// Package defense implements a kernel-level mitigation in the spirit of
// the paper's related work (§8): an EDGI-style ("Event Driven Guarding of
// Invariants", Pu & Wei, ISSSE'06) guard that tracks the invariants a
// privileged process establishes with its check calls and blocks other
// users from invalidating the name binding before the use call completes.
//
// This is a deliberately simplified reconstruction — enough to demonstrate
// on the simulator that the attacks the paper makes near-certain on
// multiprocessors are driven back to zero by invariant guarding, at the
// cost the Monitor mode quantifies. Simplifications: only invariants
// established by uid 0 are guarded (a malicious user must not be able to
// DoS root by guarding paths themselves), and guards expire after a TTL of
// virtual time so stale windows cannot wedge the namespace.
package defense

import (
	"fmt"
	"time"

	"tocttou/internal/fs"
	"tocttou/internal/sim"
)

// Mode selects enforcement behavior.
type Mode int

const (
	// Monitor counts would-be violations without blocking them.
	Monitor Mode = iota + 1
	// Enforce denies violating operations with EACCES.
	Enforce
	// Delay holds violating operations until the guarded window closes
	// (or the guard expires) instead of denying them — the
	// pseudo-transaction strategy of Tsyrklevich & Yee (§8): the
	// attacker's modification is serialized AFTER the victim's use, so
	// the race can no longer be won but no legitimate operation is ever
	// refused.
	Delay
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Monitor:
		return "monitor"
	case Enforce:
		return "enforce"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// DefaultTTL bounds how long an unused invariant stays guarded.
const DefaultTTL = 100 * time.Millisecond

// guardEntry records one guarded invariant.
type guardEntry struct {
	holderPID   int
	establishED sim.Time
	expires     sim.Time
}

// EDGI is the invariant guard. Install it on a simulated FS with
// fs.SetGuard. It is not safe for use across concurrently running
// kernels; create one per round.
type EDGI struct {
	mode Mode
	ttl  time.Duration
	// hookCost is the CPU charged per intercepted operation, modeling
	// the guard's bookkeeping in a real kernel.
	hookCost time.Duration
	// guards maps a path to its active invariant.
	guards map[string]guardEntry
	// Established counts invariants recorded.
	Established int
	// Violations counts operations that would have invalidated a guarded
	// invariant (and were denied in Enforce mode).
	Violations int
	// Denied counts operations actually blocked.
	Denied int
	// Delayed counts operations held back in Delay mode, and
	// DelayedTotal accumulates how long they waited.
	Delayed      int
	DelayedTotal time.Duration
}

// delayPoll is the granularity at which a delayed operation re-checks the
// guard.
const delayPoll = 2 * time.Microsecond

var _ fs.Guard = (*EDGI)(nil)

// DefaultHookCost is the per-operation bookkeeping charge.
const DefaultHookCost = 150 * time.Nanosecond

// New creates a guard in the given mode with the default TTL.
func New(mode Mode) *EDGI {
	return &EDGI{
		mode: mode, ttl: DefaultTTL, hookCost: DefaultHookCost,
		guards: make(map[string]guardEntry),
	}
}

// checkOps establish invariants; mutateOps invalidate name bindings;
// useOps consume (and release) invariants.
func isCheck(op fs.Op) bool {
	switch op {
	case fs.OpStat, fs.OpLstat, fs.OpOpen, fs.OpCreate, fs.OpRename:
		return true
	default:
		return false
	}
}

func isMutate(op fs.Op) bool {
	switch op {
	case fs.OpUnlink, fs.OpSymlink, fs.OpRename:
		return true
	default:
		return false
	}
}

func isUse(op fs.Op) bool {
	switch op {
	case fs.OpChown, fs.OpChmod, fs.OpClose:
		return true
	default:
		return false
	}
}

// Before implements fs.Guard.
func (g *EDGI) Before(t *sim.Task, op fs.Op, path, path2 string, cred fs.Cred) error {
	if g.hookCost > 0 {
		t.Compute(g.hookCost)
	}
	if isMutate(op) && !cred.Root() {
		for _, p := range mutatedPaths(op, path, path2) {
			e, ok := g.guards[p]
			if !ok || t.Now() > e.expires {
				continue
			}
			if e.holderPID == t.Process().PID {
				continue
			}
			g.Violations++
			switch g.mode {
			case Enforce:
				g.Denied++
				return &fs.PathError{Op: "edgi:" + op.String(), Path: p, Err: fs.EACCES}
			case Delay:
				g.delayUntilReleased(t, p)
			}
		}
	}
	return nil
}

// delayUntilReleased parks the violating thread until the guard on p is
// released by its holder's use call or expires.
func (g *EDGI) delayUntilReleased(t *sim.Task, p string) {
	start := t.Now()
	g.Delayed++
	for {
		e, ok := g.guards[p]
		if !ok || t.Now() > e.expires {
			break
		}
		t.Sleep(delayPoll)
	}
	g.DelayedTotal += t.Now().Sub(start)
}

// After implements fs.Guard.
func (g *EDGI) After(t *sim.Task, op fs.Op, path, path2 string, cred fs.Cred, err error) {
	if g.hookCost > 0 {
		t.Compute(g.hookCost)
	}
	now := t.Now()
	pid := t.Process().PID
	switch {
	case isCheck(op) && cred.Root() && err == nil:
		// A privileged check establishes (or refreshes) the invariant on
		// the checked name; for rename the invariant moves to the new name.
		target := path
		if op == fs.OpRename {
			target = path2
			delete(g.guards, path)
		}
		g.guards[target] = guardEntry{holderPID: pid, establishED: now, expires: now.Add(g.ttl)}
		g.Established++
	case isUse(op):
		// The use call closes the window: release the holder's guard.
		if e, ok := g.guards[path]; ok && e.holderPID == pid {
			delete(g.guards, path)
		}
	}
}

// mutatedPaths lists the name bindings an operation invalidates.
func mutatedPaths(op fs.Op, path, path2 string) []string {
	if op == fs.OpRename {
		return []string{path, path2}
	}
	return []string{path}
}
