// Package userland models the user-space machinery between a program and
// the simulated kernel — most importantly libc's demand-paged syscall
// stubs. In Linux all system calls go through libc, a shared library whose
// pages are mapped into a process lazily: the first call through a stub
// takes a page fault (§6.2.2 of the paper). That single trap is what makes
// the naive gedit attacker (program version 1) lose the race on a
// multi-core, and pre-faulting the stubs (version 2) is the paper's fix.
package userland

import (
	"time"

	"tocttou/internal/fs"
	"tocttou/internal/sim"
)

// Page identifies a libc text page holding syscall stubs. Stubs that the
// paper observes sharing a page (unlink and symlink, §6.2.2) share one here.
type Page uint8

// The stub pages the programs touch.
const (
	PageStat Page = iota + 1
	PageOpenClose
	PageReadWrite
	PageUnlinkSymlink
	PageRename
	PageChmodChown
	PageMisc
)

// Image is the per-process memory image: which libc stub pages have been
// faulted in. Threads of one process share an Image.
type Image struct {
	faulted  uint64 // bit i set = page i resident; pages are a tiny fixed enum
	trapCost time.Duration
}

// NewImage creates a cold image whose first call through each stub page
// costs trapCost. If prefaulted, all pages are already resident — the
// right model for a long-running victim like vi or gedit.
func NewImage(trapCost time.Duration, prefaulted bool) *Image {
	img := &Image{trapCost: trapCost}
	if prefaulted {
		for p := PageStat; p <= PageMisc; p++ {
			img.faulted |= 1 << p
		}
	}
	return img
}

// Reset returns the image to the state NewImage(trapCost, prefaulted)
// would produce, so a round-forking harness can reuse one allocation per
// process across rounds.
func (img *Image) Reset(trapCost time.Duration, prefaulted bool) {
	img.trapCost = trapCost
	img.faulted = 0
	if prefaulted {
		for p := PageStat; p <= PageMisc; p++ {
			img.faulted |= 1 << p
		}
	}
}

// Faulted reports whether a page is resident.
func (img *Image) Faulted(p Page) bool { return img.faulted&(1<<p) != 0 }

// Libc is the syscall interface a simulated program uses. It forwards to
// the simulated file system, charging a page-fault trap on the first use
// of each stub page.
type Libc struct {
	task *sim.Task
	fs   *fs.FS
	img  *Image
}

// Bind attaches a thread to an fs through a process image.
func Bind(task *sim.Task, f *fs.FS, img *Image) *Libc {
	return &Libc{task: task, fs: f, img: img}
}

// Rebind repoints an existing Libc at a new thread, so a round-forking
// harness can reuse one Libc allocation per process across rounds. The
// receiver must not be in use by another live thread.
func (c *Libc) Rebind(task *sim.Task, f *fs.FS, img *Image) *Libc {
	c.task, c.fs, c.img = task, f, img
	return c
}

// Task returns the bound thread handle.
func (c *Libc) Task() *sim.Task { return c.task }

// FS returns the bound file system.
func (c *Libc) FS() *fs.FS { return c.fs }

// Image returns the process memory image, so sibling threads can share it.
func (c *Libc) Image() *Image { return c.img }

// Fsync waits for the file's dirty pages to reach storage — a guaranteed
// I/O suspension, as in the paper's always-suspended victims (rpm, §3.2).
func (c *Libc) Fsync(f *fs.File) error {
	c.fault(PageMisc)
	return f.Sync(c.task)
}

// fault pages in a stub page on first use, charging the trap.
func (c *Libc) fault(p Page) {
	if c.img.faulted&(1<<p) != 0 {
		return
	}
	c.img.faulted |= 1 << p
	c.task.Trace(sim.Event{Kind: sim.EvTrap, Label: "page-fault", Arg: int64(c.img.trapCost)})
	c.task.Compute(c.task.Kernel().JitterDuration(c.img.trapCost))
}

// Stat wraps fs.Stat.
func (c *Libc) Stat(path string) (fs.FileInfo, error) {
	c.fault(PageStat)
	return c.fs.Stat(c.task, path)
}

// Lstat wraps fs.Lstat.
func (c *Libc) Lstat(path string) (fs.FileInfo, error) {
	c.fault(PageStat)
	return c.fs.Lstat(c.task, path)
}

// Open wraps fs.Open.
func (c *Libc) Open(path string, flags fs.OpenFlag, mode fs.Mode) (*fs.File, error) {
	c.fault(PageOpenClose)
	return c.fs.Open(c.task, path, flags, mode)
}

// Close wraps File.Close.
func (c *Libc) Close(f *fs.File) error {
	c.fault(PageOpenClose)
	return f.Close(c.task)
}

// Write wraps File.Write (synthetic content of n bytes).
func (c *Libc) Write(f *fs.File, n int64) error {
	c.fault(PageReadWrite)
	return f.Write(c.task, n)
}

// WriteChunks writes total bytes to f in chunk-sized Write calls, each
// preceded by prep(n) of user compute at machine scale (nil charges
// none) — bit-identical to the classic loop
//
//	for remaining > 0 {
//		n := min(chunk, remaining)
//		c.Compute(prep(n))
//		if err := c.Write(f, n); err != nil { break }
//	}
//
// but coalesced through the file system's bulk path (see
// fs.File.WriteChunks). prep must be a pure function of its argument.
// It returns the bytes written before an error; the failed chunk's prep
// compute is already charged, so callers retry just that chunk (e.g. via
// prog.Robustness.RetryAfter) and call WriteChunks again for the rest.
func (c *Libc) WriteChunks(f *fs.File, total, chunk int64, prep func(n int64) time.Duration) (int64, error) {
	if total <= 0 {
		return 0, nil
	}
	if chunk > 0 && !c.img.Faulted(PageReadWrite) {
		// Cold stub page: run the first chunk through the classic wrapper
		// so the demand-paging trap lands after that chunk's prep, exactly
		// where the stepped loop puts it.
		n := chunk
		if n > total {
			n = total
		}
		if prep != nil {
			c.Compute(prep(n))
		}
		if err := c.Write(f, n); err != nil {
			return 0, err
		}
		done, err := f.WriteChunks(c.task, total-n, chunk, prep)
		return n + done, err
	}
	return f.WriteChunks(c.task, total, chunk, prep)
}

// Unlink wraps fs.Unlink.
func (c *Libc) Unlink(path string) error {
	c.fault(PageUnlinkSymlink)
	return c.fs.Unlink(c.task, path)
}

// Symlink wraps fs.Symlink. It shares a stub page with Unlink, as the
// paper observes.
func (c *Libc) Symlink(target, linkpath string) error {
	c.fault(PageUnlinkSymlink)
	return c.fs.Symlink(c.task, target, linkpath)
}

// Rename wraps fs.Rename.
func (c *Libc) Rename(oldpath, newpath string) error {
	c.fault(PageRename)
	return c.fs.Rename(c.task, oldpath, newpath)
}

// Chmod wraps fs.Chmod.
func (c *Libc) Chmod(path string, mode fs.Mode) error {
	c.fault(PageChmodChown)
	return c.fs.Chmod(c.task, path, mode)
}

// Chown wraps fs.Chown.
func (c *Libc) Chown(path string, uid, gid int) error {
	c.fault(PageChmodChown)
	return c.fs.Chown(c.task, path, uid, gid)
}

// Fchown wraps File.Chown — the descriptor-based, race-free ownership
// change that fixes the paper's TOCTTOU pairs at the application level.
func (c *Libc) Fchown(f *fs.File, uid, gid int) error {
	c.fault(PageChmodChown)
	return f.Chown(c.task, uid, gid)
}

// Fchmod wraps File.Chmod.
func (c *Libc) Fchmod(f *fs.File, mode fs.Mode) error {
	c.fault(PageChmodChown)
	return f.Chmod(c.task, mode)
}

// Compute burns user CPU time (with machine jitter).
func (c *Libc) Compute(d time.Duration) {
	c.task.Compute(c.task.Kernel().JitterDuration(d))
}
