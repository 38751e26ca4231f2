package fs

import "tocttou/internal/sim"

// Stat resolves path (following symlinks) and returns its attributes.
func (f *FS) Stat(t *sim.Task, path string) (FileInfo, error) {
	return f.statCommon(t, OpStat, path, true)
}

// Lstat is Stat without following a final symlink.
func (f *FS) Lstat(t *sim.Task, path string) (FileInfo, error) {
	return f.statCommon(t, OpLstat, path, false)
}

func (f *FS) statCommon(t *sim.Task, op Op, path string, follow bool) (FileInfo, error) {
	w := f.walkerFor(t)
	f.enter(t, op, path)
	if err := f.guardBefore(t, op, path, "", w.cred); err != nil {
		f.exit(t, op, path, err)
		return FileInfo{}, err
	}
	w.charge(f.cfg.Latency.SyscallEntry)
	res, err := w.resolveExisting(op.String(), path, follow)
	if err == nil {
		w.charge(f.cfg.Latency.StatAttr)
	}
	w.flush()
	var info FileInfo
	if err == nil {
		info = res.node.info()
	}
	f.exit(t, op, path, err)
	f.guardAfter(t, op, path, "", w.cred, err)
	return info, err
}

// Unlink removes a directory entry. The parent directory's semaphore is
// held only for the detach phase; if the entry was the last link to a
// regular file that no process holds open, the file is physically
// truncated while holding only the file's own semaphore — the structure
// that makes pipelined attacks (§7) profitable.
func (f *FS) Unlink(t *sim.Task, path string) error {
	w := f.walkerFor(t)
	f.enter(t, OpUnlink, path)
	err := f.unlinkLocked(t, w, path)
	f.exit(t, OpUnlink, path, err)
	f.guardAfter(t, OpUnlink, path, "", w.cred, err)
	return err
}

func (f *FS) unlinkLocked(t *sim.Task, w *walker, path string) error {
	if err := f.guardBefore(t, OpUnlink, path, "", w.cred); err != nil {
		return err
	}
	w.charge(f.cfg.Latency.SyscallEntry)
	res, err := w.resolveExisting("unlink", path, false)
	if err != nil {
		w.flush()
		return err
	}
	parent := res.parent
	if parent == nil {
		w.flush()
		return pathErr("unlink", path, EISDIR) // "/"
	}
	if !parent.permOK(w.cred, permWrite|permExec) {
		w.flush()
		return pathErr("unlink", path, EACCES)
	}
	w.flush()
	if err := parent.isem().AcquireInterruptible(t); err != nil {
		return pathErr("unlink", path, EINTR)
	}
	// Re-lookup under the lock: the binding may have changed since the
	// unlocked walk — these are exactly the TOCTTOU semantics.
	node := parent.children[res.name]
	if node == nil {
		parent.isem().Release(t)
		return pathErr("unlink", path, ENOENT)
	}
	if node.typ == TypeDir {
		parent.isem().Release(t)
		return pathErr("unlink", path, EISDIR)
	}
	if stickyDenies(parent, node, w.cred) {
		parent.isem().Release(t)
		return pathErr("unlink", path, EACCES)
	}
	node.isem().Acquire(t)
	// Phase 1: detach the name while holding the directory lock.
	t.Compute(t.Kernel().JitterDuration(f.cfg.Latency.UnlinkDetach))
	delete(parent.children, res.name)
	f.gen++
	node.nlink--
	t.Trace(sim.Event{Kind: sim.EvNameUnbind, Path: path})
	parent.isem().Release(t)
	// Phase 2: drop the data if this was the last reference.
	if node.nlink == 0 {
		node.unlinked = true
		if node.openCount == 0 {
			f.truncateLocked(t, node)
			f.freeInode(node)
		}
	}
	node.isem().Release(t)
	return nil
}

// truncateLocked charges the physical truncation of node's data. The
// caller holds node.sem.
func (f *FS) truncateLocked(t *sim.Task, node *inode) {
	if node.typ != TypeRegular {
		return
	}
	cost := f.cfg.Latency.TruncBase + perKB(f.cfg.Latency.TruncPerKB, node.size)
	t.Compute(t.Kernel().JitterDuration(cost))
	node.size = 0
	node.data = nil
}

// Symlink creates a symbolic link at linkpath pointing to target.
func (f *FS) Symlink(t *sim.Task, target, linkpath string) error {
	w := f.walkerFor(t)
	f.enter(t, OpSymlink, linkpath)
	err := f.symlinkLocked(t, w, target, linkpath)
	f.exit(t, OpSymlink, linkpath, err)
	f.guardAfter(t, OpSymlink, linkpath, target, w.cred, err)
	return err
}

func (f *FS) symlinkLocked(t *sim.Task, w *walker, target, linkpath string) error {
	if err := f.guardBefore(t, OpSymlink, linkpath, target, w.cred); err != nil {
		return err
	}
	w.charge(f.cfg.Latency.SyscallEntry)
	res, err := w.resolve("symlink", linkpath, false, 0)
	if err != nil {
		w.flush()
		return err
	}
	if res.parent == nil {
		w.flush()
		return pathErr("symlink", linkpath, EEXIST)
	}
	if !res.parent.permOK(w.cred, permWrite|permExec) {
		w.flush()
		return pathErr("symlink", linkpath, EACCES)
	}
	w.flush()
	if err := res.parent.isem().AcquireInterruptible(t); err != nil {
		return pathErr("symlink", linkpath, EINTR)
	}
	if res.parent.children[res.name] != nil {
		res.parent.isem().Release(t)
		return pathErr("symlink", linkpath, EEXIST)
	}
	t.Compute(t.Kernel().JitterDuration(f.cfg.Latency.Symlink))
	n := f.newInode(TypeSymlink, 0o777, w.cred.UID, w.cred.GID)
	n.target = target
	n.size = int64(len(target))
	res.parent.children[res.name] = n
	f.gen++
	t.Trace(sim.Event{Kind: sim.EvNameBind, Path: linkpath, Arg: int64(n.uid)})
	res.parent.isem().Release(t)
	return nil
}

// Rename atomically rebinds oldpath's entry to newpath. The dentry swap —
// the commit point at which newpath's old binding disappears and the moved
// inode becomes visible under its new name — happens while holding the
// parent directory semaphores; concurrent lookups of either name block
// until it completes.
func (f *FS) Rename(t *sim.Task, oldpath, newpath string) error {
	w := f.walkerFor(t)
	f.enter(t, OpRename, oldpath)
	err := f.renameLocked(t, w, oldpath, newpath)
	f.exit(t, OpRename, newpath, err)
	f.guardAfter(t, OpRename, oldpath, newpath, w.cred, err)
	return err
}

func (f *FS) renameLocked(t *sim.Task, w *walker, oldpath, newpath string) error {
	if err := f.guardBefore(t, OpRename, oldpath, newpath, w.cred); err != nil {
		return err
	}
	w.charge(f.cfg.Latency.SyscallEntry)
	ores, err := w.resolveExisting("rename", oldpath, false)
	if err != nil {
		w.flush()
		return err
	}
	if ores.parent == nil {
		w.flush()
		return pathErr("rename", oldpath, EINVAL)
	}
	nres, err := w.resolve("rename", newpath, false, 0)
	if err != nil {
		w.flush()
		return err
	}
	if nres.parent == nil {
		w.flush()
		return pathErr("rename", newpath, EINVAL)
	}
	if !ores.parent.permOK(w.cred, permWrite|permExec) || !nres.parent.permOK(w.cred, permWrite|permExec) {
		w.flush()
		return pathErr("rename", newpath, EACCES)
	}
	if stickyDenies(ores.parent, ores.node, w.cred) {
		w.flush()
		return pathErr("rename", oldpath, EACCES)
	}
	// Work performed before the directory locks are taken.
	w.charge(f.cfg.Latency.RenamePre)
	w.flush()

	// Lock parents in inode order to avoid ABBA deadlocks.
	first, second := ores.parent, nres.parent
	if first == second {
		second = nil
	} else if second.ino < first.ino {
		first, second = second, first
	}
	// Only the first lock is interruptible: once any namespace lock is
	// held the operation is committed to finishing (a mid-rename EINTR
	// would have to unwind a partially locked dentry pair).
	if err := first.isem().AcquireInterruptible(t); err != nil {
		return pathErr("rename", oldpath, EINTR)
	}
	if second != nil {
		second.isem().Acquire(t)
	}

	// Re-lookup under the locks.
	onode := ores.parent.children[ores.name]
	if onode == nil {
		if second != nil {
			second.isem().Release(t)
		}
		first.isem().Release(t)
		return pathErr("rename", oldpath, ENOENT)
	}
	displaced := nres.parent.children[nres.name]
	if displaced == onode {
		displaced = nil // renaming a name onto itself
	}
	if displaced != nil && displaced.typ == TypeDir {
		if second != nil {
			second.isem().Release(t)
		}
		first.isem().Release(t)
		return pathErr("rename", newpath, EISDIR)
	}
	if displaced != nil && stickyDenies(nres.parent, displaced, w.cred) {
		if second != nil {
			second.isem().Release(t)
		}
		first.isem().Release(t)
		return pathErr("rename", newpath, EACCES)
	}

	// The swap phase: the namespace semaphores AND the dentry-cache
	// locks are held for its whole duration, so concurrent lookups of
	// either name stall until the binding changes at its end.
	f.dcacheBusy++
	first.dlock().Acquire(t)
	if second != nil {
		second.dlock().Acquire(t)
	}
	t.Compute(t.Kernel().JitterDuration(f.cfg.Latency.RenameSwap))
	delete(ores.parent.children, ores.name)
	t.Trace(sim.Event{Kind: sim.EvNameUnbind, Path: oldpath})
	if displaced != nil {
		displaced.nlink--
		t.Trace(sim.Event{Kind: sim.EvNameUnbind, Path: newpath})
	}
	nres.parent.children[nres.name] = onode
	f.gen++
	t.Trace(sim.Event{Kind: sim.EvNameBind, Path: newpath, Arg: int64(onode.uid)})
	if second != nil {
		second.dlock().Release(t)
	}
	first.dlock().Release(t)
	f.dcacheBusy--

	if second != nil {
		second.isem().Release(t)
	}
	first.isem().Release(t)

	// Post-swap bookkeeping, outside the directory locks.
	t.Compute(t.Kernel().JitterDuration(f.cfg.Latency.RenamePost))
	if displaced != nil && displaced.nlink == 0 {
		displaced.unlinked = true
		if displaced.openCount == 0 {
			displaced.isem().Acquire(t)
			f.truncateLocked(t, displaced)
			f.freeInode(displaced)
			displaced.isem().Release(t)
		}
	}
	return nil
}

// Chmod changes permission bits. Only the owner or root may do so. The
// path is resolved before the inode semaphore is acquired, so a concurrent
// rebinding of the name leaves chmod operating on the previously resolved
// inode — the TOCTTOU behavior the attacks exploit.
func (f *FS) Chmod(t *sim.Task, path string, mode Mode) error {
	w := f.walkerFor(t)
	f.enter(t, OpChmod, path)
	err := func() error {
		if err := f.guardBefore(t, OpChmod, path, "", w.cred); err != nil {
			return err
		}
		w.charge(f.cfg.Latency.SyscallEntry)
		res, err := w.resolveExisting("chmod", path, true)
		if err != nil {
			w.flush()
			return err
		}
		if !w.cred.Root() && w.cred.UID != res.node.uid {
			w.flush()
			return pathErr("chmod", path, EPERM)
		}
		w.flush()
		if err := res.node.isem().AcquireInterruptible(t); err != nil {
			return pathErr("chmod", path, EINTR)
		}
		t.Compute(t.Kernel().JitterDuration(f.cfg.Latency.Chmod))
		res.node.mode = mode
		f.gen++
		t.Trace(sim.Event{Kind: sim.EvAttrChange, Label: "chmod", Path: path, Arg: int64(mode)})
		res.node.isem().Release(t)
		return nil
	}()
	f.exit(t, OpChmod, path, err)
	f.guardAfter(t, OpChmod, path, "", w.cred, err)
	return err
}

// Chown changes ownership; only root may change the owner. Like Chmod it
// resolves the path (following symlinks) before locking the inode — the
// call at the "use" end of both of the paper's TOCTTOU pairs.
func (f *FS) Chown(t *sim.Task, path string, uid, gid int) error {
	w := f.walkerFor(t)
	f.enter(t, OpChown, path)
	err := func() error {
		if err := f.guardBefore(t, OpChown, path, "", w.cred); err != nil {
			return err
		}
		w.charge(f.cfg.Latency.SyscallEntry)
		res, err := w.resolveExisting("chown", path, true)
		if err != nil {
			w.flush()
			return err
		}
		if !w.cred.Root() {
			w.flush()
			return pathErr("chown", path, EPERM)
		}
		w.flush()
		if err := res.node.isem().AcquireInterruptible(t); err != nil {
			return pathErr("chown", path, EINTR)
		}
		t.Compute(t.Kernel().JitterDuration(f.cfg.Latency.Chown))
		res.node.uid = uid
		res.node.gid = gid
		f.gen++
		t.Trace(sim.Event{Kind: sim.EvAttrChange, Label: "chown", Path: path, Arg: int64(uid)})
		res.node.isem().Release(t)
		return nil
	}()
	f.exit(t, OpChown, path, err)
	f.guardAfter(t, OpChown, path, "", w.cred, err)
	return err
}
