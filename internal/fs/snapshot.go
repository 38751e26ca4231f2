package fs

import "sort"

// This file implements copy-on-write prefix forking for the file system.
// A sweep point runs thousands of rounds against the identical fixture
// tree; rebuilding it per round (Reset + MustMkdirAll/MustWriteFile) costs
// allocation, hashing, and tree construction that forking amortizes away.
//
// Snapshot captures the tree into an Image that remembers, for every live
// inode, its scalar state and (for directories) its dirent list — including
// the *inode pointers themselves. Fork restores each captured inode IN
// PLACE: the pointer identity of every fixture object survives across
// rounds. Pointer stability is what makes the restore cheap (directory
// maps are usually untouched and verified rather than rebuilt, resolution
// cache entries minted before the first mutation stay valid from round to
// round) and what keeps observables identical (ino numbers, semaphore
// labels, and trace strings are all restored to the captured values).

// savedDirent is one captured directory entry.
type savedDirent struct {
	name  string
	child *inode
}

// savedNode is the captured state of one live inode.
type savedNode struct {
	n        *inode
	typ      FileType
	mode     Mode
	uid, gid int
	size     int64
	nlink    int
	target   string
	data     []byte
	children []savedDirent
}

// Image is a snapshot of a file system tree, restorable with Fork. It is
// bound to the FS that produced it (restore is in-place) and stays valid
// until that FS is Reset or re-snapshotted. The fault hook — the only
// per-round element of the fs configuration — is re-supplied at Fork time.
type Image struct {
	owner      *FS
	nodes      []savedNode
	nextIno    Ino
	inodeCount int
	// baseGen is the namespace generation the cached resolutions of the
	// snapshot tree are stamped with; Fork advances it whenever the forked
	// round mutated the namespace (see the epoch re-stamp below).
	baseGen uint64
	cfg     Config
}

// Snapshot captures the current tree. It must not be called while a
// simulation that references this FS is running.
func (f *FS) Snapshot() *Image {
	img := &Image{
		owner:      f,
		nextIno:    f.nextIno,
		inodeCount: f.inodeCount,
		baseGen:    f.gen,
		cfg:        f.cfg,
	}
	img.cfg.Faults = nil
	var walk func(n *inode)
	walk = func(n *inode) {
		n.snap = true
		s := savedNode{
			n: n, typ: n.typ, mode: n.mode, uid: n.uid, gid: n.gid,
			size: n.size, nlink: n.nlink, target: n.target,
		}
		if n.data != nil {
			s.data = append([]byte(nil), n.data...)
		}
		if len(n.children) > 0 {
			s.children = make([]savedDirent, 0, len(n.children))
			for name, c := range n.children {
				s.children = append(s.children, savedDirent{name: name, child: c})
			}
			sort.Slice(s.children, func(i, j int) bool {
				return s.children[i].name < s.children[j].name
			})
		}
		img.nodes = append(img.nodes, s)
		for _, d := range s.children {
			walk(d.child)
		}
	}
	walk(f.root)
	return img
}

// Fork restores the snapshot tree in place, giving the next round a file
// system indistinguishable from one freshly Reset and refixtured: every
// captured inode gets its captured attributes (and content copy) back,
// round-created extras are swept to the free list, inode numbering resumes
// from the captured counter, and lock state is cleared. faults installs the
// next round's fault hook (nil for none). Fork must not be called while a
// simulation that references this FS is running.
func (f *FS) Fork(img *Image, faults FaultHook) {
	if img.owner != f {
		panic("fs: Fork with an Image captured from a different FS")
	}
	f.reclaimDead()
	cfg := img.cfg
	cfg.Faults = faults
	f.cfg = cfg
	f.guard = nil
	mutated := f.gen != img.baseGen
	for i := range img.nodes {
		s := &img.nodes[i]
		n := s.n
		n.typ, n.mode, n.uid, n.gid = s.typ, s.mode, s.uid, s.gid
		n.size, n.nlink = s.size, s.nlink
		n.target = s.target
		n.openCount, n.unlinked = 0, false
		n.freed = false
		if s.data != nil {
			n.data = append(n.data[:0], s.data...)
		} else {
			n.data = nil
		}
		if n.sem != nil {
			n.sem.ResetState()
		}
		if n.dcache != nil {
			n.dcache.ResetState()
		}
		if mutated && s.typ == TypeDir {
			f.reconcileDir(n, s)
		}
	}
	f.nextIno = img.nextIno
	f.inodeCount = img.inodeCount
	f.dcacheBusy = 0
	f.fileIdx = 0
	if mutated {
		// Epoch re-stamp: resolution-cache entries minted before the
		// round's first namespace mutation describe exactly the snapshot
		// tree, so they remain valid for the restored tree — but their
		// generation stamp must move to a value no stale mid-round entry
		// can collide with. Advance the generation once and carry the
		// pre-mutation entries over; everything else is dropped.
		f.gen++
		for i := range f.resCache {
			e := &f.resCache[i]
			if e.gen == img.baseGen {
				e.gen = f.gen
			} else {
				*e = resEntry{}
			}
		}
		img.baseGen = f.gen
	}
}

// reconcileDir brings a snapshot directory's dirent map back to its
// captured contents. The common case — the round never touched the
// directory — verifies in place without writing. Otherwise the map is
// rebuilt from the captured list and every no-longer-referenced
// round-created inode is recycled (snapshot members are never freed: they
// are restored through their own savedNode).
func (f *FS) reconcileDir(n *inode, s *savedNode) {
	if len(n.children) == len(s.children) {
		same := true
		for i := range s.children {
			if n.children[s.children[i].name] != s.children[i].child {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	for name, c := range n.children {
		delete(n.children, name)
		f.freeExtra(c)
	}
	for i := range s.children {
		n.children[s.children[i].name] = s.children[i].child
	}
}

// freeExtra returns a round-created inode (and any round-created
// descendants) to the free list. Snapshot members are skipped — a rename
// may have moved one under a round-created directory — and the freed flag
// guards against recycling a hard-linked extra twice.
func (f *FS) freeExtra(n *inode) {
	if n.snap || n.freed {
		return
	}
	n.freed = true
	for name, c := range n.children {
		delete(n.children, name)
		f.freeExtra(c)
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
