// Package victim implements syscall-level replicas of the vulnerable
// save paths the paper attacks: vi 6.1's <open, chown> window (Fig. 1),
// gedit 2.8.3's <rename, chown> window (Fig. 3), and an rpm-like victim
// that is always suspended inside its window (§3.2's upper-bound case).
//
// User-space compute parameters are expressed at the 3.2 GHz base
// calibration and scaled by the machine profile, except gedit's
// rename→chmod gap, which the paper reports per machine (43 µs on the
// SMP, 3 µs on the multi-core) and which the profile therefore supplies
// directly.
package victim

import (
	"fmt"
	"time"

	"tocttou/internal/fs"
	"tocttou/internal/machine"
	"tocttou/internal/prog"
	"tocttou/internal/userland"
)

// Vi replays vi's save path: rename the original to a backup, create the
// file anew (as root — the window opens), write the buffer in chunks,
// close, and chown back to the original owner (the window closes). The
// window therefore contains the whole file write, which is why vi's L
// grows linearly with file size (Fig. 7).
type Vi struct {
	// ChunkSize is the write(2) granularity (vi's buffer size).
	ChunkSize int64
	// PerChunkCompute is vi's user-space work per full chunk (encoding
	// checks, buffer management) at base speed.
	PerChunkCompute time.Duration
	// PostOpenCompute is vi's work between open returning and the first
	// write, at base speed.
	PostOpenCompute time.Duration
	// PreChownCompute is vi's work between close and chown, at base
	// speed.
	PreChownCompute time.Duration
	// Robust is the save path's reaction to transient syscall failures
	// (injected EINTR/EIO/ENOSPC/EMFILE; see internal/fault). The zero
	// value aborts the save on the first failure — the historical
	// behavior. With Fallback set, a persistently failing backup rename
	// degrades to saving without a backup copy instead of aborting.
	Robust prog.Robustness
}

// NewVi returns vi with the default calibration.
func NewVi() *Vi {
	return &Vi{
		ChunkSize:       8 * 1024,
		PerChunkCompute: 54 * time.Microsecond,
		PostOpenCompute: 20 * time.Microsecond,
		PreChownCompute: 30 * time.Microsecond,
	}
}

var _ prog.Program = (*Vi)(nil)

// WindowEstimate approximates vi's vulnerability window length for a
// file size on a machine, from its calibrated parameters: the fixed
// open-to-chown work plus one write per chunk.
func (v *Vi) WindowEstimate(m machine.Profile, size int64) time.Duration {
	chunks := (size + v.ChunkSize - 1) / v.ChunkSize
	perChunk := m.ScaleCompute(v.PerChunkCompute) +
		m.Latency.WriteBase + time.Duration(float64(m.Latency.WritePerKB)*float64(v.ChunkSize)/1024)
	fixed := m.ScaleCompute(v.PostOpenCompute+v.PreChownCompute) + m.Latency.Close
	return fixed + time.Duration(chunks)*perChunk
}

// Name implements prog.Program.
func (v *Vi) Name() string { return "vi" }

// Run implements prog.Program.
func (v *Vi) Run(c *userland.Libc, env prog.Env) error {
	scale := env.Machine.ScaleCompute
	r := v.Robust
	var st fs.FileInfo
	err := r.Retry(c, func() error {
		var e error
		st, e = c.Stat(env.Target)
		return e
	})
	if err != nil {
		return fmt.Errorf("vi: stat original: %w", err)
	}
	if err := r.Retry(c, func() error { return c.Rename(env.Target, env.Backup) }); err != nil {
		if !r.Fallback {
			return fmt.Errorf("vi: backup rename: %w", err)
		}
		// Degraded path: save without keeping the backup copy — the
		// OTrunc below rewrites the original in place.
	}
	var f *fs.File
	err = r.Retry(c, func() error {
		var e error
		f, e = c.Open(env.Target, fs.OWrite|fs.OCreate|fs.OTrunc, 0o644)
		return e
	})
	if err != nil {
		return fmt.Errorf("vi: create: %w", err)
	}
	c.Compute(scale(v.PostOpenCompute))
	// vi prepares each chunk in user space before writing it.
	prep := func(n int64) time.Duration {
		return scale(time.Duration(float64(v.PerChunkCompute) * float64(n) / float64(v.ChunkSize)))
	}
	remaining := env.FileSize
	for remaining > 0 {
		written, werr := c.WriteChunks(f, remaining, v.ChunkSize, prep)
		remaining -= written
		if werr == nil {
			continue
		}
		// One chunk failed with its prep already charged — the exact state
		// the stepped loop is in when c.Write returns an injected error.
		// Run that chunk's retries under the robustness policy, then
		// resume the coalesced path for the remainder.
		n := v.ChunkSize
		if n > remaining {
			n = remaining
		}
		if err := r.RetryAfter(werr, c, func() error { return c.Write(f, n) }); err != nil {
			return fmt.Errorf("vi: write: %w", err)
		}
		remaining -= n
	}
	if err := r.Retry(c, func() error { return c.Close(f) }); err != nil {
		return fmt.Errorf("vi: close: %w", err)
	}
	c.Compute(scale(v.PreChownCompute))
	// Restore the original owner — the "use" end of the TOCTTOU pair.
	// If the attacker won the race, Target now resolves through a
	// symlink to /etc/passwd and this chown hands the attacker the file.
	if err := r.Retry(c, func() error { return c.Chown(env.Target, st.UID, st.GID) }); err != nil {
		return fmt.Errorf("vi: chown: %w", err)
	}
	return nil
}

// Gedit replays gedit 2.8.3's save path: write the buffer to a scratch
// file, back the original up, rename the scratch over the original (the
// window opens at the rename's commit), then chmod and chown it back.
// The window excludes the file write entirely, so it is tiny and
// independent of file size — why gedit is unattackable on a uniprocessor
// (§4.2) yet falls at 83% on the SMP (§6.1).
type Gedit struct {
	// ChunkSize is the write granularity for the scratch file.
	ChunkSize int64
	// PerChunkCompute is gedit's user-space work per chunk written, at
	// base speed.
	PerChunkCompute time.Duration
	// ChmodChownGap is the work between chmod and chown, at base speed.
	ChmodChownGap time.Duration
}

// NewGedit returns gedit with the default calibration.
func NewGedit() *Gedit {
	return &Gedit{
		ChunkSize:       8 * 1024,
		PerChunkCompute: 25 * time.Microsecond,
		ChmodChownGap:   8 * time.Microsecond,
	}
}

var _ prog.Program = (*Gedit)(nil)

// Name implements prog.Program.
func (g *Gedit) Name() string { return "gedit" }

// Run implements prog.Program.
func (g *Gedit) Run(c *userland.Libc, env prog.Env) error {
	scale := env.Machine.ScaleCompute
	st, err := c.Stat(env.Target)
	if err != nil {
		return fmt.Errorf("gedit: stat original: %w", err)
	}
	// Back up the original under the backup name, so the upcoming rename
	// displaces nothing and stays fast — the gedit window must not
	// depend on file size (§4.2).
	if err := c.Rename(env.Target, env.Backup); err != nil {
		return fmt.Errorf("gedit: backup: %w", err)
	}
	// Write the buffer to the scratch file (root-owned, outside the
	// vulnerability window).
	tmp, err := c.Open(env.Temp, fs.OWrite|fs.OCreate|fs.OTrunc, 0o600)
	if err != nil {
		return fmt.Errorf("gedit: scratch create: %w", err)
	}
	prep := func(n int64) time.Duration {
		return scale(time.Duration(float64(g.PerChunkCompute) * float64(n) / float64(g.ChunkSize)))
	}
	if _, err := c.WriteChunks(tmp, env.FileSize, g.ChunkSize, prep); err != nil {
		return fmt.Errorf("gedit: scratch write: %w", err)
	}
	if err := c.Close(tmp); err != nil {
		return fmt.Errorf("gedit: scratch close: %w", err)
	}
	// The <rename, chown> window: rename commits the root-owned scratch
	// file under the original name...
	if err := c.Rename(env.Temp, env.Target); err != nil {
		return fmt.Errorf("gedit: rename: %w", err)
	}
	// ...the machine-specific computation gap the paper measured...
	c.Compute(env.Machine.GeditRenameChmodGap)
	// ...then mode and ownership restoration.
	if err := c.Chmod(env.Target, st.Mode); err != nil {
		// gedit ignores the failure; the attacker may have unlinked the
		// name between rename and chmod.
		_ = err
	}
	c.Compute(scale(g.ChmodChownGap))
	if err := c.Chown(env.Target, st.UID, st.GID); err != nil {
		_ = err
	}
	return nil
}

// Mailer replays the paper's §1 motivating example: a sendmail-style
// delivery agent running as root that checks the mailbox is not a
// symbolic link (lstat) and then appends the message (open+write) — the
// classic <lstat, open> TOCTTOU pair. The window is only the user-space
// gap between check and use, so on a uniprocessor the attack is hopeless;
// on a multiprocessor a flip-flopping attacker lands inside it.
type Mailer struct {
	// MessageSize is the appended message length.
	MessageSize int64
	// PreDeliveryCompute is queue processing before the check, at base
	// speed.
	PreDeliveryCompute time.Duration
	// CheckUseGap is the user-space computation between lstat returning
	// and open being issued, at base speed.
	CheckUseGap time.Duration
}

// NewMailer returns the sendmail-style victim with default calibration.
func NewMailer() *Mailer {
	return &Mailer{
		MessageSize:        512,
		PreDeliveryCompute: 150 * time.Microsecond,
		CheckUseGap:        8 * time.Microsecond,
	}
}

var _ prog.Program = (*Mailer)(nil)

// Name implements prog.Program.
func (m *Mailer) Name() string { return "mailer" }

// ErrDeliveryRefused reports that the symlink check caught the attack in
// flagrante — the delivery was aborted, the attack failed safely.
var ErrDeliveryRefused = fmt.Errorf("mailer: mailbox is a symlink, delivery refused")

// Run implements prog.Program. The mailbox is env.Target.
func (m *Mailer) Run(c *userland.Libc, env prog.Env) error {
	scale := env.Machine.ScaleCompute
	c.Compute(scale(m.PreDeliveryCompute))
	// The check: refuse to deliver into a symbolic link.
	info, err := c.Lstat(env.Target)
	if err != nil {
		return fmt.Errorf("mailer: mailbox stat: %w", err)
	}
	if info.Type == fs.TypeSymlink {
		return ErrDeliveryRefused
	}
	// The window: check done, use not yet issued.
	c.Compute(scale(m.CheckUseGap))
	// The use: open follows symlinks — if the attacker swapped the
	// mailbox in the window, this appends to /etc/passwd.
	f, err := c.Open(env.Target, fs.OWrite|fs.OAppend, 0)
	if err != nil {
		return fmt.Errorf("mailer: mailbox open: %w", err)
	}
	if err := c.Write(f, m.MessageSize); err != nil {
		return fmt.Errorf("mailer: append: %w", err)
	}
	if err := c.Close(f); err != nil {
		return fmt.Errorf("mailer: close: %w", err)
	}
	return nil
}

// AlwaysSuspended is an rpm-like victim whose window contains a
// guaranteed storage wait (fsync). Per §3.2, with P(victim suspended) = 1
// an attacker can reach ~100% success even on a uniprocessor — the
// model-validation counterpoint to gedit's near-zero.
type AlwaysSuspended struct {
	// ChunkSize is the write granularity.
	ChunkSize int64
}

// NewAlwaysSuspended returns the rpm-like victim.
func NewAlwaysSuspended() *AlwaysSuspended {
	return &AlwaysSuspended{ChunkSize: 8 * 1024}
}

var _ prog.Program = (*AlwaysSuspended)(nil)

// Name implements prog.Program.
func (r *AlwaysSuspended) Name() string { return "rpm-like" }

// Run implements prog.Program.
func (r *AlwaysSuspended) Run(c *userland.Libc, env prog.Env) error {
	st, err := c.Stat(env.Target)
	if err != nil {
		return fmt.Errorf("rpm-like: stat: %w", err)
	}
	if err := c.Rename(env.Target, env.Backup); err != nil {
		return fmt.Errorf("rpm-like: backup rename: %w", err)
	}
	f, err := c.Open(env.Target, fs.OWrite|fs.OCreate|fs.OTrunc, 0o644)
	if err != nil {
		return fmt.Errorf("rpm-like: create: %w", err)
	}
	if _, err := c.WriteChunks(f, env.FileSize, r.ChunkSize, nil); err != nil {
		return fmt.Errorf("rpm-like: write: %w", err)
	}
	// The guaranteed suspension inside the window.
	if err := c.Fsync(f); err != nil {
		return fmt.Errorf("rpm-like: fsync: %w", err)
	}
	if err := c.Close(f); err != nil {
		return fmt.Errorf("rpm-like: close: %w", err)
	}
	if err := c.Chown(env.Target, st.UID, st.GID); err != nil {
		return fmt.Errorf("rpm-like: chown: %w", err)
	}
	return nil
}
