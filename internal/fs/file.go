package fs

import (
	"time"

	"tocttou/internal/sim"
)

// OpenFlag selects open(2) behavior.
type OpenFlag uint16

const (
	// ORead requests read access.
	ORead OpenFlag = 1 << iota
	// OWrite requests write access.
	OWrite
	// OCreate creates the file if it does not exist.
	OCreate
	// OTrunc truncates an existing regular file to zero length.
	OTrunc
	// OExcl makes OCreate fail if the file already exists.
	OExcl
	// OAppend opens for appending. Writes in this simulation always
	// append, so the flag is informational, but it documents intent at
	// call sites like the sendmail-style mailbox delivery.
	OAppend
)

// File is an open file description.
type File struct {
	fs     *FS
	node   *inode
	path   string
	flags  OpenFlag
	offset int64
	closed bool
}

// Open opens (and with OCreate possibly creates) a file. Creation inserts
// the new dentry while holding the parent directory's semaphore; the new
// file is owned by the calling process's credential — which is how vi,
// running as root, creates a root-owned file and opens its <open, chown>
// vulnerability window (paper §2.1).
func (f *FS) Open(t *sim.Task, path string, flags OpenFlag, mode Mode) (*File, error) {
	w := f.walkerFor(t)
	f.enter(t, OpOpen, path)
	file, err := f.openLocked(t, w, path, flags, mode)
	f.exit(t, OpOpen, path, err)
	f.guardAfter(t, OpOpen, path, "", w.cred, err)
	return file, err
}

// newFile hands out an open file description from the arena, growing it on
// first use. Slots are reused only after a Reset or Fork rewinds fileIdx,
// so a description handed out this round is never aliased within it.
func (f *FS) newFile(node *inode, path string, flags OpenFlag) *File {
	if f.fileIdx < len(f.fileArena) {
		fl := f.fileArena[f.fileIdx]
		f.fileIdx++
		*fl = File{fs: f, node: node, path: path, flags: flags}
		return fl
	}
	fl := &File{fs: f, node: node, path: path, flags: flags}
	f.fileArena = append(f.fileArena, fl)
	f.fileIdx++
	return fl
}

func (f *FS) openLocked(t *sim.Task, w *walker, path string, flags OpenFlag, mode Mode) (*File, error) {
	if err := f.guardBefore(t, OpOpen, path, "", w.cred); err != nil {
		return nil, err
	}
	if flags&(ORead|OWrite) == 0 {
		return nil, pathErr("open", path, EINVAL)
	}
	w.charge(f.cfg.Latency.SyscallEntry)
	res, err := w.resolve("open", path, true, 0)
	if err != nil {
		w.flush()
		return nil, err
	}
	if res.node == nil {
		if flags&OCreate == 0 {
			w.flush()
			return nil, pathErr("open", path, ENOENT)
		}
		if res.parent == nil || !res.parent.permOK(w.cred, permWrite|permExec) {
			w.flush()
			return nil, pathErr("open", path, EACCES)
		}
		w.flush()
		if err := res.parent.isem().AcquireInterruptible(t); err != nil {
			return nil, pathErr("open", path, EINTR)
		}
		// Re-check under the lock; a concurrent creator may have won.
		if existing := res.parent.children[res.name]; existing != nil {
			res.parent.isem().Release(t)
			return f.openExisting(t, w, path, existing, flags)
		}
		t.Compute(t.Kernel().JitterDuration(f.cfg.Latency.Create))
		n := f.newInode(TypeRegular, mode, w.cred.UID, w.cred.GID)
		res.parent.children[res.name] = n
		f.gen++
		t.Trace(sim.Event{Kind: sim.EvNameBind, Path: path, Arg: int64(n.uid)})
		res.parent.isem().Release(t)
		n.openCount++
		return f.newFile(n, path, flags), nil
	}
	if flags&(OCreate|OExcl) == OCreate|OExcl {
		w.flush()
		return nil, pathErr("open", path, EEXIST)
	}
	return f.openExisting(t, w, path, res.node, flags)
}

func (f *FS) openExisting(t *sim.Task, w *walker, path string, node *inode, flags OpenFlag) (*File, error) {
	if node.typ == TypeDir && flags&OWrite != 0 {
		w.flush()
		return nil, pathErr("open", path, EISDIR)
	}
	var want Mode
	if flags&ORead != 0 {
		want |= permRead
	}
	if flags&OWrite != 0 {
		want |= permWrite
	}
	if !node.permOK(w.cred, want) {
		w.flush()
		return nil, pathErr("open", path, EACCES)
	}
	w.charge(f.cfg.Latency.OpenExisting)
	w.flush()
	if flags&OTrunc != 0 && flags&OWrite != 0 && node.typ == TypeRegular && node.size > 0 {
		if err := node.isem().AcquireInterruptible(t); err != nil {
			return nil, pathErr("open", path, EINTR)
		}
		f.truncateLocked(t, node)
		node.isem().Release(t)
	}
	node.openCount++
	return f.newFile(node, path, flags), nil
}

// Write appends n bytes of synthetic content (sizes only). It holds the
// inode semaphore for the duration of the copy, and may stall on storage
// per the profile's dirty-throttling model — on a uniprocessor such a
// stall suspends the victim mid-window.
func (fl *File) Write(t *sim.Task, n int64) error {
	return fl.writeCommon(t, n)
}

// WriteChunks appends total bytes as a sequence of chunk-sized appends,
// bit-identical to the classic loop
//
//	for remaining > 0 {
//		n := min(chunk, remaining)
//		t.Compute(k.JitterDuration(prep(n)))   // omitted when prep is nil
//		if err := fl.Write(t, n); err != nil { break }
//	}
//
// but coalesced: runs of the loop that provably contain no pending kernel
// event and no semaphore contention are retired in bulk through
// sim.Stretch — one aggregate clock advance instead of per-chunk
// event-loop iterations. prep must be a pure function of its
// argument (the chunk's byte count), returning the user-space compute
// charged before that chunk, pre-jitter; nil charges none.
//
// It returns how many bytes were appended. On error the failed chunk's
// bytes are not counted, but its prep compute has been charged — a caller
// that retries (prog.Robustness) re-issues only the failed chunk's Write,
// exactly as the classic loop's retry of the failed call would.
func (fl *File) WriteChunks(t *sim.Task, total, chunk int64, prep func(n int64) time.Duration) (int64, error) {
	if total <= 0 {
		return 0, nil
	}
	if chunk <= 0 {
		return 0, pathErr("write", fl.path, EINVAL)
	}
	k := t.Kernel()
	var written int64
	for written < total {
		done, err := fl.writeChunksCoalesced(t, k, total-written, chunk, prep)
		written += done
		if err != nil || written >= total {
			return written, err
		}
		// Coalescing is unavailable here (a guard/tracer/chooser installed,
		// the inode semaphore contended, or the thread in a state the
		// stretch preconditions reject): run one chunk through the classic
		// stepped path — guaranteed progress — then try again.
		n := chunk
		if rem := total - written; n > rem {
			n = rem
		}
		if prep != nil {
			t.Compute(k.JitterDuration(prep(n)))
		}
		if err := fl.Write(t, n); err != nil {
			return written, err
		}
		written += n
	}
	return written, nil
}

// writeChunksCoalesced retires as many prep+write chunks as it can prove
// uncontended, returning how many bytes it applied. A zero count with nil
// error means coalescing is not currently available and the caller must
// make progress through the stepped path. The RNG draw sequence — prep
// jitter, fault-plan draw, write-cost jitter, stall Bernoulli (plus the
// stall length when one fires) — is replayed per chunk in exactly the
// stepped order, so seeded streams stay bit-identical; only the
// event-loop traffic between the draws is elided. Whenever an effect must
// be observable through the event loop (a pending event lands inside a
// segment, a stall fires and the thread genuinely blocks, an injected
// fault surfaces), the stretch is committed at that exact instant and the
// affected part executes through the real machinery, preserving the
// interleaving.
func (fl *File) writeChunksCoalesced(t *sim.Task, k *sim.Kernel, total, chunk int64, prep func(n int64) time.Duration) (int64, error) {
	f := fl.fs
	if f.guard != nil || k.ChooserActive() {
		return 0, nil
	}
	s, ok := t.BeginStretch()
	if !ok {
		return 0, nil
	}
	node := fl.node
	sem := node.isem()
	lat := &f.cfg.Latency
	var written int64
	for written < total {
		if !sem.Quiet() {
			break
		}
		n := chunk
		if rem := total - written; n > rem {
			n = rem
		}
		// The chunk's user-space prep, inside the stretch. A pending event
		// inside the segment routes it through the real event loop
		// (AdvanceRouted) — other threads may have run there, so the chunk
		// continues coalesced only if the inode semaphore is still quiet;
		// otherwise (or when the stretch broke) the rest of the chunk runs
		// stepped: its fault draw has not happened yet, so Write replays
		// the stepped sequence exactly.
		if prep != nil {
			if d := k.JitterDuration(prep(n)); d > 0 {
				if r := s.Advance(d); r != sim.AdvanceCoalesced &&
					(r == sim.AdvanceBroken || !sem.Quiet()) {
					if err := fl.Write(t, n); err != nil {
						return written, err
					}
					written += n
					if s, ok = t.BeginStretch(); !ok {
						return written, nil
					}
					continue
				}
			}
		}
		// The write body, draw for draw in writeCommon's order.
		if f.cfg.Faults != nil {
			if err := f.cfg.Faults.InjectOp(t, OpWrite, fl.path); err != nil {
				s.Commit()
				return written, err
			}
		}
		if fl.closed || fl.flags&OWrite == 0 {
			s.Commit()
			return written, pathErr("write", fl.path, EBADF)
		}
		if err := sem.AcquireInterruptible(t); err != nil {
			// Unreachable: the semaphore is Quiet, so the acquire takes the
			// non-blocking fast path. Kept for parity with writeCommon.
			s.Commit()
			return written, pathErr("write", fl.path, EINTR)
		}
		// The media cost. When a pending event lands inside the copy the
		// segment runs through the event loop; waiters may then be queued
		// on the held inode semaphore, so the chunk's tail — stall model,
		// mutation, and a genuine Release — finishes stepped.
		cost := lat.WriteBase + perKB(lat.WritePerKB, n)
		if d := k.JitterDuration(cost); d > 0 && s.Advance(d) != sim.AdvanceCoalesced {
			fl.writeTailStepped(t, k, n)
			written += n
			if s, ok = t.BeginStretch(); !ok {
				return written, nil
			}
			continue
		}
		// The storage-stall Bernoulli; a fired stall genuinely blocks (with
		// the semaphore held, as writeCommon does), ending the stretch at
		// the post-copy instant.
		if p := lat.WriteStallProbPerKB * float64(n) / 1024.0; p > 0 && k.Bernoulli(p) {
			s.Commit()
			stall := k.LogNormalDuration(lat.StallMedian, 0.7)
			t.BlockIO(stall)
			fl.applyChunk(n)
			sem.Release(t)
			written += n
			if s, ok = t.BeginStretch(); !ok {
				return written, nil
			}
			continue
		}
		// Content mutation and release, uncontended by construction.
		fl.applyChunk(n)
		sem.Release(t)
		written += n
	}
	s.Commit()
	return written, nil
}

// writeTailStepped finishes a chunk whose media cost was already charged:
// the stall model, content mutation, and semaphore release — writeCommon's
// exact tail. The caller holds the inode semaphore and has verified no
// Chooser is installed.
func (fl *File) writeTailStepped(t *sim.Task, k *sim.Kernel, n int64) {
	lat := &fl.fs.cfg.Latency
	if p := lat.WriteStallProbPerKB * float64(n) / 1024.0; p > 0 && k.Bernoulli(p) {
		stall := k.LogNormalDuration(lat.StallMedian, 0.7)
		t.BlockIO(stall)
	}
	fl.applyChunk(n)
	fl.node.isem().Release(t)
}

// applyChunk applies the content effect of one appended chunk of n
// bytes: size, offset, and (when tracked) backing bytes.
func (fl *File) applyChunk(n int64) {
	node := fl.node
	if fl.fs.cfg.TrackContent {
		node.data = append(node.data, make([]byte, n)...)
	}
	node.size += n
	fl.offset += n
}

func (fl *File) writeCommon(t *sim.Task, n int64) error {
	f := fl.fs
	f.enter(t, OpWrite, fl.path)
	err := func() error {
		cred := credOf(t)
		if err := f.guardBefore(t, OpWrite, fl.path, "", cred); err != nil {
			return err
		}
		if fl.closed {
			return pathErr("write", fl.path, EBADF)
		}
		if fl.flags&OWrite == 0 {
			return pathErr("write", fl.path, EBADF)
		}
		if n < 0 {
			return pathErr("write", fl.path, EINVAL)
		}
		node := fl.node
		if err := node.isem().AcquireInterruptible(t); err != nil {
			return pathErr("write", fl.path, EINTR)
		}
		cost := f.cfg.Latency.WriteBase + perKB(f.cfg.Latency.WritePerKB, n)
		t.Compute(t.Kernel().JitterDuration(cost))
		if p := f.cfg.Latency.WriteStallProbPerKB * float64(n) / 1024.0; p > 0 {
			if k := t.Kernel(); k.ChooserActive() {
				// Under a chooser the stall is a first-class Bernoulli
				// choice point with a fixed (median) duration, so schedule
				// exploration can weight both branches exactly.
				if k.ChooseBernoulli(sim.ChooseStall, p) {
					t.BlockIO(f.cfg.Latency.StallMedian)
				}
			} else if k.Bernoulli(p) {
				stall := k.LogNormalDuration(f.cfg.Latency.StallMedian, 0.7)
				t.BlockIO(stall)
			}
		}
		fl.applyChunk(n)
		node.isem().Release(t)
		return nil
	}()
	f.exit(t, OpWrite, fl.path, err)
	f.guardAfter(t, OpWrite, fl.path, "", credOf(t), err)
	return err
}

// Chown changes the open file's ownership by descriptor (fchown(2)).
// Because no path is resolved, a concurrent rebinding of the name cannot
// redirect it — this is the canonical application-level fix for the
// paper's <open, chown> and <rename, chown> pairs.
func (fl *File) Chown(t *sim.Task, uid, gid int) error {
	f := fl.fs
	f.enter(t, OpChown, fl.path)
	err := func() error {
		cred := credOf(t)
		if err := f.guardBefore(t, OpChown, fl.path, "", cred); err != nil {
			return err
		}
		if fl.closed {
			return pathErr("fchown", fl.path, EBADF)
		}
		if !cred.Root() {
			return pathErr("fchown", fl.path, EPERM)
		}
		if err := fl.node.isem().AcquireInterruptible(t); err != nil {
			return pathErr("fchown", fl.path, EINTR)
		}
		t.Compute(t.Kernel().JitterDuration(f.cfg.Latency.Chown))
		fl.node.uid = uid
		fl.node.gid = gid
		f.gen++
		t.Trace(sim.Event{Kind: sim.EvAttrChange, Label: "fchown", Path: fl.path, Arg: int64(uid)})
		fl.node.isem().Release(t)
		return nil
	}()
	f.exit(t, OpChown, fl.path, err)
	f.guardAfter(t, OpChown, fl.path, "", credOf(t), err)
	return err
}

// Chmod changes the open file's permission bits by descriptor (fchmod(2)).
func (fl *File) Chmod(t *sim.Task, mode Mode) error {
	f := fl.fs
	f.enter(t, OpChmod, fl.path)
	err := func() error {
		cred := credOf(t)
		if err := f.guardBefore(t, OpChmod, fl.path, "", cred); err != nil {
			return err
		}
		if fl.closed {
			return pathErr("fchmod", fl.path, EBADF)
		}
		if !cred.Root() && cred.UID != fl.node.uid {
			return pathErr("fchmod", fl.path, EPERM)
		}
		if err := fl.node.isem().AcquireInterruptible(t); err != nil {
			return pathErr("fchmod", fl.path, EINTR)
		}
		t.Compute(t.Kernel().JitterDuration(f.cfg.Latency.Chmod))
		fl.node.mode = mode
		f.gen++
		t.Trace(sim.Event{Kind: sim.EvAttrChange, Label: "fchmod", Path: fl.path, Arg: int64(mode)})
		fl.node.isem().Release(t)
		return nil
	}()
	f.exit(t, OpChmod, fl.path, err)
	f.guardAfter(t, OpChmod, fl.path, "", credOf(t), err)
	return err
}

// Sync flushes the file's dirty pages to storage, always blocking on I/O
// for a sampled service time. It does not hold the inode semaphore while
// waiting, so other namespace operations can proceed — which is exactly
// what makes an fsync-ing victim easy prey on a uniprocessor.
func (fl *File) Sync(t *sim.Task) error {
	f := fl.fs
	f.enter(t, OpWrite, fl.path)
	err := func() error {
		if fl.closed {
			return pathErr("fsync", fl.path, EBADF)
		}
		t.Compute(t.Kernel().JitterDuration(f.cfg.Latency.SyscallEntry))
		stall := f.cfg.Latency.StallMedian
		if !t.Kernel().ChooserActive() {
			stall = t.Kernel().LogNormalDuration(f.cfg.Latency.StallMedian, 0.5)
		}
		t.BlockIO(stall)
		return nil
	}()
	f.exit(t, OpWrite, fl.path, err)
	return err
}

// Close releases the file description. If the file was unlinked while
// open, the deferred physical truncation is paid here, while holding the
// inode semaphore — as the final iput does in a real kernel.
func (fl *File) Close(t *sim.Task) error {
	f := fl.fs
	f.enter(t, OpClose, fl.path)
	err := func() error {
		cred := credOf(t)
		if err := f.guardBefore(t, OpClose, fl.path, "", cred); err != nil {
			return err
		}
		if fl.closed {
			return pathErr("close", fl.path, EBADF)
		}
		fl.closed = true
		node := fl.node
		t.Compute(t.Kernel().JitterDuration(f.cfg.Latency.Close))
		node.openCount--
		if node.openCount == 0 && node.nlink == 0 && node.unlinked {
			node.isem().Acquire(t)
			f.truncateLocked(t, node)
			f.freeInode(node)
			node.isem().Release(t)
		}
		return nil
	}()
	f.exit(t, OpClose, fl.path, err)
	f.guardAfter(t, OpClose, fl.path, "", credOf(t), err)
	return err
}

func credOf(t *sim.Task) Cred {
	p := t.Process()
	return Cred{UID: p.UID, GID: p.GID}
}
