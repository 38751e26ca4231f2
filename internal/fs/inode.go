package fs

import (
	"fmt"
	"strings"

	"tocttou/internal/sim"
)

// Ino is an inode number.
type Ino int64

// FileType distinguishes the inode kinds the experiments need.
type FileType uint8

const (
	// TypeRegular is an ordinary file.
	TypeRegular FileType = iota + 1
	// TypeDir is a directory.
	TypeDir
	// TypeSymlink is a symbolic link.
	TypeSymlink
)

// String returns a short name for the type.
func (t FileType) String() string {
	switch t {
	case TypeRegular:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Mode holds Unix permission bits plus the sticky bit (0o1000).
type Mode uint16

// ModeSticky is the sticky bit: in a sticky directory only the file owner
// (or the directory owner, or root) may unlink or rename entries.
const ModeSticky Mode = 0o1000

// Cred is the credential an operation runs under.
type Cred struct {
	UID int
	GID int
}

// Root reports whether the credential is the superuser.
func (c Cred) Root() bool { return c.UID == 0 }

// FileInfo is the result of Stat/Lstat.
type FileInfo struct {
	Ino   Ino
	Type  FileType
	Mode  Mode
	UID   int
	GID   int
	Size  int64
	Nlink int
	// Target is the link target for symlinks.
	Target string
}

// inode is the in-core representation of a file-system object.
type inode struct {
	ino   Ino
	typ   FileType
	mode  Mode
	uid   int
	gid   int
	size  int64
	nlink int
	data  []byte // content when the FS tracks content
	// target is the symlink destination.
	target string
	// children maps names to inodes for directories.
	children map[string]*inode
	// sem is the inode semaphore (i_sem): namespace and attribute
	// modifications of this object serialize on it. It is created lazily
	// by isem() on first acquisition — fixture inodes the round never
	// locks cost no semaphore allocation.
	sem *sim.Sem
	// dcache is the dentry-level lock of a directory: rename's dentry
	// swap holds it, and concurrent lookups of names in the directory
	// stall behind it (the "stat lengthened" effect of the paper's
	// Fig. 10). Plain unlink/create/symlink do NOT hold it across their
	// work — cached lookups do not block on a directory's i_sem. Created
	// lazily by dlock(); a nil dcache means "unowned" to lookups.
	dcache *sim.Sem
	// openCount is the number of open file descriptions; unlinked files
	// are truncated only when the last one closes.
	openCount int
	// unlinked marks an inode whose last name was removed.
	unlinked bool
	// snap marks an inode captured by the live Image (see snapshot.go):
	// Fork restores it in place and must never return it to the free list.
	snap bool
	// freed guards against double-recycling during Fork's sweep of
	// round-created extras (a hard link can make one reachable twice).
	freed bool
}

// Config parameterizes a simulated file system.
type Config struct {
	// Latency is the operation cost calibration.
	Latency LatencyProfile
	// TrackContent stores file bytes; experiments usually track only
	// sizes to keep memory flat across thousands of rounds.
	TrackContent bool
	// UnsynchronizedLookups disables lookup blocking behind rename's
	// dentry swap. Ablation only: it removes the mechanism that
	// synchronizes the attacker's detection with the opening of the
	// gedit window (DESIGN.md decision 3).
	UnsynchronizedLookups bool
	// Faults, when non-nil, is consulted before every operation and may
	// veto it with an injected errno (EIO/ENOSPC/EMFILE...). Nil — the
	// default — keeps every operation fault-free. See internal/fault.
	Faults FaultHook
}

// FS is a simulated Unix-style file system. A finished FS can be recycled
// for another round with Reset, which returns every inode of the old tree
// (struct, children map, and semaphores) to a free list for reuse.
type FS struct {
	cfg     Config
	root    *inode
	nextIno Ino
	guard   Guard
	// inodeCount tracks live inodes for leak assertions in tests.
	inodeCount int
	// free holds recycled inode shells harvested by Reset and Fork.
	free []*inode
	// dead holds inodes freed mid-round (last link gone, last
	// descriptor closed). A File may still point at one until the round
	// ends, so Reset and Fork move them to free, never freeInode.
	dead []*inode

	// gen is the namespace/attribute generation: every mutation that can
	// change the outcome of a path resolution (bind, unbind, rename,
	// chmod/chown, symlink retarget) increments it, invalidating resCache
	// entries stamped with older generations.
	gen uint64
	// dcacheBusy counts dentry-cache locks currently held (rename's swap
	// phase). While nonzero, cached resolutions are bypassed so lookups
	// take the full walk and stall behind the lock exactly as before.
	dcacheBusy int
	// resCache memoizes whole-path resolutions (see resolve.go). It is
	// invisible to simulated behavior: a hit charges the identical lookup
	// cost the walk would have accumulated. A small direct-mapped array
	// beats a map here: the simulated programs resolve the same handful of
	// fixture paths (stable string objects from prog.Env) over and over.
	resCache [resCacheSlots]resEntry
	// resClock is the round-robin eviction cursor for resCache.
	resClock uint8

	// fileArena recycles open file descriptions across rounds: Reset and
	// Fork rewind fileIdx, and openLocked/openExisting overwrite slots in
	// order. A File stays valid until the FS is reset, never shorter than
	// the round that opened it, so recycling is invisible to programs.
	fileArena []*File
	fileIdx   int
}

// New creates an empty file system with a root directory owned by root.
func New(cfg Config) *FS {
	f := &FS{cfg: cfg}
	f.root = f.newInode(TypeDir, 0o755, 0, 0)
	f.root.nlink = 2
	return f
}

// Reset returns the file system to the empty state New(cfg) would produce,
// recycling the previous tree's inodes. It must not be called while a
// simulation that references this FS is running. A Reset file system
// behaves identically to a fresh one: inode numbering restarts at 1, so a
// deterministic fixture build assigns every file the same ino (and the
// same trace labels) it would get from a brand-new FS.
func (f *FS) Reset(cfg Config) {
	f.reclaimDead()
	f.harvest(f.root)
	f.cfg = cfg
	f.guard = nil
	f.inodeCount = 0
	f.nextIno = 0
	f.gen++
	f.dcacheBusy = 0
	f.fileIdx = 0
	f.root = f.newInode(TypeDir, 0o755, 0, 0)
	f.root.nlink = 2
}

// harvest recursively returns n's subtree to the free list, scrubbing
// per-round state but keeping the allocations (children map, semaphores)
// for the next round.
func (f *FS) harvest(n *inode) {
	for name, c := range n.children {
		f.harvest(c)
		delete(n.children, name)
	}
	n.data = nil
	n.target = ""
	if n.sem != nil {
		n.sem.ResetState()
	}
	if n.dcache != nil {
		n.dcache.ResetState()
	}
	f.free = append(f.free, n)
}

// SetGuard installs a Guard consulted before and after every operation.
// Pass nil to remove.
func (f *FS) SetGuard(g Guard) { f.guard = g }

func (f *FS) newInode(typ FileType, mode Mode, uid, gid int) *inode {
	f.nextIno++
	f.inodeCount++
	var n *inode
	if ln := len(f.free); ln > 0 {
		n = f.free[ln-1]
		f.free[ln-1] = nil
		f.free = f.free[:ln-1]
		n.ino = f.nextIno
		n.typ, n.mode, n.uid, n.gid = typ, mode, uid, gid
		n.size, n.nlink = 0, 1
		n.openCount, n.unlinked = 0, false
		n.snap, n.freed = false, false
	} else {
		n = &inode{ino: f.nextIno, typ: typ, mode: mode, uid: uid, gid: gid, nlink: 1}
	}
	if typ == TypeDir && n.children == nil {
		n.children = make(map[string]*inode)
	}
	return n
}

// isem returns the inode semaphore, creating it on first use. A recycled
// inode may carry a semaphore numbered for a previous identity (the free
// list pops in harvest order, not creation order); it is renumbered on
// every use so traces from a recycled FS match a fresh one exactly.
func (n *inode) isem() *sim.Sem {
	if n.sem == nil {
		n.sem = sim.NewSem("ino:")
	}
	n.sem.Renumber(int64(n.ino))
	return n.sem
}

// dlock returns the directory's dentry lock, creating it on first use.
// Lookups treat a nil dcache as an unowned lock, so creation is deferred
// until a rename actually takes it.
func (n *inode) dlock() *sim.Sem {
	if n.dcache == nil {
		n.dcache = sim.NewSem("dcache:")
	}
	n.dcache.Renumber(int64(n.ino))
	return n.dcache
}

func (f *FS) freeInode(n *inode) {
	f.inodeCount--
	n.data = nil
	f.dead = append(f.dead, n)
}

// reclaimDead moves the inodes freed since the last Reset or Fork to the
// free list. Snapshot members are skipped (Fork restores them in place),
// and freeExtra's freed flag keeps an inode from being recycled twice.
func (f *FS) reclaimDead() {
	for i, n := range f.dead {
		f.freeExtra(n)
		f.dead[i] = nil
	}
	f.dead = f.dead[:0]
}

// InodeCount returns the number of live inodes (for leak checks in tests).
func (f *FS) InodeCount() int { return f.inodeCount }

func (n *inode) info() FileInfo {
	return FileInfo{
		Ino: n.ino, Type: n.typ, Mode: n.mode, UID: n.uid, GID: n.gid,
		Size: n.size, Nlink: n.nlink, Target: n.target,
	}
}

// permBits selects the permission triplet that applies to cred.
func (n *inode) permOK(cred Cred, want Mode) bool {
	if cred.Root() {
		return true
	}
	var bits Mode
	switch {
	case cred.UID == n.uid:
		bits = (n.mode >> 6) & 7
	case cred.GID == n.gid:
		bits = (n.mode >> 3) & 7
	default:
		bits = n.mode & 7
	}
	return bits&want == want
}

const (
	permRead  Mode = 4
	permWrite Mode = 2
	permExec  Mode = 1
)

// stickyDenies implements the sticky-bit unlink/rename restriction.
func stickyDenies(parent, node *inode, cred Cred) bool {
	if cred.Root() || parent.mode&ModeSticky == 0 {
		return false
	}
	return cred.UID != node.uid && cred.UID != parent.uid
}

// splitPathInto normalizes an absolute path into components, appending to
// buf — typically a stack-backed scratch from the caller, which keeps the
// per-syscall resolve walk allocation-free (components are substrings of
// path, so no copies are made either). It rejects relative paths: the
// simulated processes always use absolute names.
func splitPathInto(path string, buf []string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, EINVAL
	}
	comps := buf
	for i := 1; i <= len(path); {
		var c string
		if j := strings.IndexByte(path[i:], '/'); j < 0 {
			c = path[i:]
			i = len(path) + 1
		} else {
			c = path[i : i+j]
			i += j + 1
		}
		switch c {
		case "", ".":
		case "..":
			if len(comps) > 0 {
				comps = comps[:len(comps)-1]
			}
		default:
			comps = append(comps, c)
		}
	}
	return comps, nil
}

// splitPath is splitPathInto with a freshly allocated buffer, for cold
// paths (fixtures, post-run assertions).
func splitPath(path string) ([]string, error) { return splitPathInto(path, nil) }

// --- Fixture helpers -----------------------------------------------------
//
// The Must* methods build or inspect the tree directly, bypassing timing,
// locking, and permission checks. They are for experiment setup and
// post-run assertions only and must not be called while the kernel runs.

// MustMkdirAll creates a directory path (and missing parents).
func (f *FS) MustMkdirAll(path string, mode Mode, uid, gid int) {
	f.gen++
	comps, err := splitPath(path)
	if err != nil {
		panic(fmt.Sprintf("fs: MustMkdirAll %q: %v", path, err))
	}
	cur := f.root
	for _, c := range comps {
		next, ok := cur.children[c]
		if !ok {
			next = f.newInode(TypeDir, mode, uid, gid)
			next.nlink = 2
			cur.children[c] = next
			cur.nlink++
		}
		if next.typ != TypeDir {
			panic(fmt.Sprintf("fs: MustMkdirAll %q: %q is not a directory", path, c))
		}
		cur = next
	}
}

// MustWriteFile creates (or replaces) a regular file of the given size.
func (f *FS) MustWriteFile(path string, size int64, mode Mode, uid, gid int) {
	f.gen++
	parent, name := f.mustParent(path)
	n := f.newInode(TypeRegular, mode, uid, gid)
	n.size = size
	if f.cfg.TrackContent {
		n.data = make([]byte, size)
	}
	if old, ok := parent.children[name]; ok {
		f.freeInode(old)
	}
	parent.children[name] = n
}

// MustSymlink creates a symbolic link.
func (f *FS) MustSymlink(target, linkpath string, uid, gid int) {
	f.gen++
	parent, name := f.mustParent(linkpath)
	n := f.newInode(TypeSymlink, 0o777, uid, gid)
	n.target = target
	n.size = int64(len(target))
	parent.children[name] = n
}

func (f *FS) mustParent(path string) (*inode, string) {
	comps, err := splitPath(path)
	if err != nil || len(comps) == 0 {
		panic(fmt.Sprintf("fs: bad fixture path %q", path))
	}
	cur := f.root
	for _, c := range comps[:len(comps)-1] {
		next, ok := cur.children[c]
		if !ok || next.typ != TypeDir {
			panic(fmt.Sprintf("fs: fixture parent missing for %q", path))
		}
		cur = next
	}
	return cur, comps[len(comps)-1]
}

// LookupInfo inspects a path without timing or locking, following symlinks.
// For post-run assertions (e.g. "who owns /etc/passwd now?").
func (f *FS) LookupInfo(path string) (FileInfo, error) {
	n, err := f.lookupNoCharge(path, true, 0)
	if err != nil {
		return FileInfo{}, err
	}
	return n.info(), nil
}

// LookupLinkInfo is LookupInfo without following a final symlink.
func (f *FS) LookupLinkInfo(path string) (FileInfo, error) {
	n, err := f.lookupNoCharge(path, false, 0)
	if err != nil {
		return FileInfo{}, err
	}
	return n.info(), nil
}

func (f *FS) lookupNoCharge(path string, follow bool, depth int) (*inode, error) {
	if depth > maxSymlinkDepth {
		return nil, pathErr("lookup", path, ELOOP)
	}
	// Stack-backed scratch as in walker.walk: LookupInfo runs once per
	// round for the post-run ownership assertion, and fixture paths are
	// shallow, so the split stays off the heap.
	var scratch [8]string
	comps, err := splitPathInto(path, scratch[:0])
	if err != nil {
		return nil, pathErr("lookup", path, EINVAL)
	}
	cur := f.root
	for i, c := range comps {
		if cur.typ != TypeDir {
			return nil, pathErr("lookup", path, ENOTDIR)
		}
		next, ok := cur.children[c]
		if !ok {
			return nil, pathErr("lookup", path, ENOENT)
		}
		last := i == len(comps)-1
		if next.typ == TypeSymlink && (!last || follow) {
			return f.lookupNoCharge(expandLink(comps[:i], next.target, comps[i+1:]), follow, depth+1)
		}
		cur = next
	}
	return cur, nil
}
