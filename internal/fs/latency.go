package fs

import "time"

// LatencyProfile calibrates the CPU cost of each file-system operation and
// the storage-stall model. The base numbers are expressed for a
// 3.2 GHz-class machine (the paper's multi-core, §6.2); Scale derives
// profiles for slower processors.
//
// The values are calibrated so that the microsecond figures the paper
// reports emerge from the simulation: a ~4 µs stat, a vi window that grows
// ≈16 µs per KB written, an unlink whose duration is dominated by
// truncation, and a rename whose directory-semaphore hold delays concurrent
// lookups of the same name.
type LatencyProfile struct {
	// SyscallEntry is the fixed kernel entry/exit overhead per syscall.
	SyscallEntry time.Duration
	// Lookup is the per-path-component dentry lookup cost.
	Lookup time.Duration
	// StatAttr is the cost of copying out inode attributes.
	StatAttr time.Duration

	// Create is the cost of allocating an inode and inserting a dentry.
	Create time.Duration
	// OpenExisting is the cost of opening an existing file.
	OpenExisting time.Duration
	// Close is the cost of closing a file descriptor (excluding any
	// deferred truncation of an unlinked file).
	Close time.Duration

	// WriteBase and WritePerKB model buffered (page-cache) writes.
	WriteBase  time.Duration
	WritePerKB time.Duration
	// ReadBase and ReadPerKB model cached reads. No operation charges
	// them, nor Readlink or Mkdir below: the simulated programs never
	// read, readlink or mkdir. They stay because sweep keys encode the
	// whole machine profile, field by field.
	ReadBase  time.Duration
	ReadPerKB time.Duration

	// UnlinkDetach is the cost of removing the directory entry (the first
	// phase of unlink, after which the parent directory lock is released).
	UnlinkDetach time.Duration
	// TruncBase and TruncPerKB model physically truncating the file, the
	// dominant cost of unlink (§7: "The main part of unlink is spent
	// physically truncating the file").
	TruncBase  time.Duration
	TruncPerKB time.Duration

	// Symlink is the cost of creating a symbolic link.
	Symlink time.Duration
	// Readlink is the cost of reading a link target.
	Readlink time.Duration

	// RenamePre is rename work before the directory locks are taken,
	// RenameSwap is the dentry-swap phase performed while holding them
	// (the commit point is at its end), RenamePost is cleanup after the
	// locks are released.
	RenamePre  time.Duration
	RenameSwap time.Duration
	RenamePost time.Duration

	// Chmod and Chown are attribute-change costs (charged while holding
	// the target inode's semaphore).
	Chmod time.Duration
	Chown time.Duration
	// Mkdir is the directory-creation cost.
	Mkdir time.Duration

	// WriteStallProbPerKB is the per-KB probability that a buffered write
	// stalls on storage (dirty-page throttling). On a uniprocessor such a
	// stall suspends the victim inside its vulnerability window — one of
	// the paper's §4.1 success sources.
	WriteStallProbPerKB float64
	// StallMedian is the median stall length (log-normal, sigma 0.7).
	StallMedian time.Duration
}

// DefaultProfile returns the 3.2 GHz-class calibration.
func DefaultProfile() LatencyProfile {
	return LatencyProfile{
		SyscallEntry: 300 * time.Nanosecond,
		Lookup:       700 * time.Nanosecond,
		StatAttr:     600 * time.Nanosecond,

		Create:       4 * time.Microsecond,
		OpenExisting: 2 * time.Microsecond,
		Close:        1500 * time.Nanosecond,

		WriteBase:  2 * time.Microsecond,
		WritePerKB: 800 * time.Nanosecond,
		ReadBase:   1500 * time.Nanosecond,
		ReadPerKB:  500 * time.Nanosecond,

		UnlinkDetach: 2500 * time.Nanosecond,
		TruncBase:    2 * time.Microsecond,
		TruncPerKB:   600 * time.Nanosecond,

		Symlink:  2500 * time.Nanosecond,
		Readlink: time.Microsecond,

		RenamePre:  2 * time.Microsecond,
		RenameSwap: 4 * time.Microsecond,
		RenamePost: 7 * time.Microsecond,

		Chmod: 1800 * time.Nanosecond,
		Chown: 2200 * time.Nanosecond,
		Mkdir: 4 * time.Microsecond,

		WriteStallProbPerKB: 0,
		StallMedian:         4 * time.Millisecond,
	}
}

// Scale returns a copy of the profile with every CPU cost multiplied by
// factor (e.g. 1.88 for a 1.7 GHz machine relative to the 3.2 GHz base).
// Storage-stall parameters are unchanged: disks do not get slower because
// the CPU does.
func (p LatencyProfile) Scale(factor float64) LatencyProfile {
	s := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * factor)
	}
	q := p
	q.SyscallEntry = s(p.SyscallEntry)
	q.Lookup = s(p.Lookup)
	q.StatAttr = s(p.StatAttr)
	q.Create = s(p.Create)
	q.OpenExisting = s(p.OpenExisting)
	q.Close = s(p.Close)
	q.WriteBase = s(p.WriteBase)
	q.WritePerKB = s(p.WritePerKB)
	q.ReadBase = s(p.ReadBase)
	q.ReadPerKB = s(p.ReadPerKB)
	q.UnlinkDetach = s(p.UnlinkDetach)
	q.TruncBase = s(p.TruncBase)
	q.TruncPerKB = s(p.TruncPerKB)
	q.Symlink = s(p.Symlink)
	q.Readlink = s(p.Readlink)
	q.RenamePre = s(p.RenamePre)
	q.RenameSwap = s(p.RenameSwap)
	q.RenamePost = s(p.RenamePost)
	q.Chmod = s(p.Chmod)
	q.Chown = s(p.Chown)
	q.Mkdir = s(p.Mkdir)
	return q
}

// perKB multiplies a per-KB cost by a byte count.
func perKB(perKB time.Duration, bytes int64) time.Duration {
	return time.Duration(float64(perKB) * float64(bytes) / 1024.0)
}
