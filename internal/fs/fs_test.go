package fs

import (
	"errors"
	"testing"
	"time"

	"tocttou/internal/sim"
)

// harness runs fn as a root-owned thread on a fresh kernel + FS.
func harness(t *testing.T, cpus int, cfg Config, uid, gid int, fn func(*sim.Task, *FS)) (*FS, *sim.Kernel) {
	t.Helper()
	k := sim.New(sim.Config{CPUs: cpus, Quantum: 50 * time.Millisecond, Seed: 1})
	f := New(cfg)
	p := k.NewProcess("test", uid, gid)
	k.Spawn(p, "main", func(task *sim.Task) { fn(task, f) })
	if err := k.Run(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
	return f, k
}

func defCfg() Config { return Config{Latency: DefaultProfile(), TrackContent: true} }

func TestCreateAndStat(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/home/alice", 0o755, 1000, 1000)
		file, err := f.Open(task, "/home/alice/doc.txt", OWrite|OCreate, 0o644)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := file.Write(task, 4096); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := file.Close(task); err != nil {
			t.Fatalf("close: %v", err)
		}
		info, err := f.Stat(task, "/home/alice/doc.txt")
		if err != nil {
			t.Fatalf("stat: %v", err)
		}
		if info.Size != 4096 {
			t.Errorf("size = %d, want 4096", info.Size)
		}
		if info.UID != 0 {
			t.Errorf("uid = %d, want 0 (creator)", info.UID)
		}
		if info.Type != TypeRegular {
			t.Errorf("type = %v, want file", info.Type)
		}
	})
}

func TestStatMissingIsENOENT(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		_, err := f.Stat(task, "/nope")
		if !errors.Is(err, ENOENT) {
			t.Errorf("err = %v, want ENOENT", err)
		}
		_, err = f.Stat(task, "/nope/deeper")
		if !errors.Is(err, ENOENT) {
			t.Errorf("intermediate err = %v, want ENOENT", err)
		}
	})
}

func TestRelativePathRejected(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		if _, err := f.Stat(task, "relative/path"); !errors.Is(err, EINVAL) {
			t.Errorf("err = %v, want EINVAL", err)
		}
	})
}

func TestDotAndDotDotNormalization(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/a/b", 0o755, 0, 0)
		f.MustWriteFile("/a/b/x", 1, 0o644, 0, 0)
		for _, p := range []string{"/a/./b/x", "/a/b/../b/x", "//a//b//x", "/../a/b/x"} {
			if _, err := f.Stat(task, p); err != nil {
				t.Errorf("stat %q: %v", p, err)
			}
		}
	})
}

func TestSymlinkFollowAndLstat(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/etc", 0o755, 0, 0)
		f.MustWriteFile("/etc/passwd", 512, 0o644, 0, 0)
		f.MustMkdirAll("/tmp", 0o777|ModeSticky, 0, 0)
		if err := f.Symlink(task, "/etc/passwd", "/tmp/link"); err != nil {
			t.Fatalf("symlink: %v", err)
		}
		info, err := f.Stat(task, "/tmp/link")
		if err != nil {
			t.Fatalf("stat: %v", err)
		}
		if info.Size != 512 || info.Type != TypeRegular {
			t.Errorf("stat through link = %+v, want the target", info)
		}
		linfo, err := f.Lstat(task, "/tmp/link")
		if err != nil {
			t.Fatalf("lstat: %v", err)
		}
		if linfo.Type != TypeSymlink || linfo.Target != "/etc/passwd" {
			t.Errorf("lstat = %+v, want a symlink to /etc/passwd", linfo)
		}
	})
}

func TestSymlinkInMiddleOfPath(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/data/real", 0o755, 0, 0)
		f.MustWriteFile("/data/real/x", 7, 0o644, 0, 0)
		f.MustSymlink("/data/real", "/data/alias", 0, 0)
		info, err := f.Stat(task, "/data/alias/x")
		if err != nil {
			t.Fatalf("stat through mid symlink: %v", err)
		}
		if info.Size != 7 {
			t.Errorf("size = %d, want 7", info.Size)
		}
	})
}

func TestSymlinkLoopIsELOOP(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/tmp", 0o777, 0, 0)
		f.MustSymlink("/tmp/b", "/tmp/a", 0, 0)
		f.MustSymlink("/tmp/a", "/tmp/b", 0, 0)
		if _, err := f.Stat(task, "/tmp/a"); !errors.Is(err, ELOOP) {
			t.Errorf("err = %v, want ELOOP", err)
		}
	})
}

func TestChownFollowsSymlink(t *testing.T) {
	// The heart of both attacks: chown(path) applied after the attacker
	// rebinds path to a symlink must change the symlink's TARGET.
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/etc", 0o755, 0, 0)
		f.MustWriteFile("/etc/passwd", 512, 0o644, 0, 0)
		f.MustMkdirAll("/home/alice", 0o755, 1000, 1000)
		f.MustSymlink("/etc/passwd", "/home/alice/doc.txt", 1000, 1000)
		if err := f.Chown(task, "/home/alice/doc.txt", 1000, 1000); err != nil {
			t.Fatalf("chown: %v", err)
		}
		info, err := f.LookupInfo("/etc/passwd")
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		if info.UID != 1000 {
			t.Errorf("/etc/passwd uid = %d, want 1000 (chown must follow the link)", info.UID)
		}
	})
}

func TestChownRequiresRoot(t *testing.T) {
	harness(t, 1, defCfg(), 1000, 1000, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/home/alice", 0o755, 1000, 1000)
		f.MustWriteFile("/home/alice/f", 1, 0o644, 1000, 1000)
		if err := f.Chown(task, "/home/alice/f", 1001, 1001); !errors.Is(err, EPERM) {
			t.Errorf("err = %v, want EPERM", err)
		}
	})
}

func TestChmodOwnerOrRootOnly(t *testing.T) {
	harness(t, 1, defCfg(), 1000, 1000, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/home/alice", 0o755, 1000, 1000)
		f.MustWriteFile("/home/alice/mine", 1, 0o644, 1000, 1000)
		f.MustWriteFile("/home/alice/roots", 1, 0o644, 0, 0)
		if err := f.Chmod(task, "/home/alice/mine", 0o600); err != nil {
			t.Errorf("chmod own file: %v", err)
		}
		if err := f.Chmod(task, "/home/alice/roots", 0o600); !errors.Is(err, EPERM) {
			t.Errorf("chmod other's file err = %v, want EPERM", err)
		}
	})
}

func TestUnlinkRemovesName(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/d", 0o755, 0, 0)
		f.MustWriteFile("/d/f", 100, 0o644, 0, 0)
		before := f.InodeCount()
		if err := f.Unlink(task, "/d/f"); err != nil {
			t.Fatalf("unlink: %v", err)
		}
		if _, err := f.Stat(task, "/d/f"); !errors.Is(err, ENOENT) {
			t.Errorf("stat after unlink = %v, want ENOENT", err)
		}
		if got := f.InodeCount(); got != before-1 {
			t.Errorf("inode count = %d, want %d (inode freed)", got, before-1)
		}
	})
}

func TestUnlinkDirectoryIsEISDIR(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/d/sub", 0o755, 0, 0)
		if err := f.Unlink(task, "/d/sub"); !errors.Is(err, EISDIR) {
			t.Errorf("err = %v, want EISDIR", err)
		}
	})
}

func TestUnlinkDoesNotFollowSymlink(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/etc", 0o755, 0, 0)
		f.MustWriteFile("/etc/passwd", 512, 0o644, 0, 0)
		f.MustMkdirAll("/tmp", 0o777, 0, 0)
		f.MustSymlink("/etc/passwd", "/tmp/l", 0, 0)
		if err := f.Unlink(task, "/tmp/l"); err != nil {
			t.Fatalf("unlink: %v", err)
		}
		if _, err := f.LookupInfo("/etc/passwd"); err != nil {
			t.Errorf("target vanished: %v", err)
		}
		if _, err := f.LookupLinkInfo("/tmp/l"); !errors.Is(err, ENOENT) {
			t.Errorf("link still present: %v", err)
		}
	})
}

func TestUnlinkedOpenFileTruncatesOnClose(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/d", 0o755, 0, 0)
		file, err := f.Open(task, "/d/f", OWrite|OCreate, 0o644)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := file.Write(task, 1024); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := f.Unlink(task, "/d/f"); err != nil {
			t.Fatalf("unlink: %v", err)
		}
		// Writes through the fd still work on the orphaned inode.
		if err := file.Write(task, 1024); err != nil {
			t.Errorf("write after unlink: %v", err)
		}
		before := f.InodeCount()
		if err := file.Close(task); err != nil {
			t.Fatalf("close: %v", err)
		}
		if got := f.InodeCount(); got != before-1 {
			t.Errorf("inode not freed on close: %d -> %d", before, got)
		}
	})
}

func TestRenameRebindsAndDisplaces(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/d", 0o755, 0, 0)
		f.MustWriteFile("/d/a", 10, 0o644, 0, 0)
		f.MustWriteFile("/d/b", 20, 0o644, 0, 0)
		if err := f.Rename(task, "/d/a", "/d/b"); err != nil {
			t.Fatalf("rename: %v", err)
		}
		if _, err := f.Stat(task, "/d/a"); !errors.Is(err, ENOENT) {
			t.Errorf("old name survives: %v", err)
		}
		info, err := f.Stat(task, "/d/b")
		if err != nil || info.Size != 10 {
			t.Errorf("new name = %+v, %v; want the moved inode (size 10)", info, err)
		}
	})
}

func TestRenameAcrossDirectories(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/src", 0o755, 0, 0)
		f.MustMkdirAll("/dst", 0o755, 0, 0)
		f.MustWriteFile("/src/f", 5, 0o644, 0, 0)
		if err := f.Rename(task, "/src/f", "/dst/g"); err != nil {
			t.Fatalf("rename: %v", err)
		}
		if _, err := f.Stat(task, "/dst/g"); err != nil {
			t.Errorf("moved file missing: %v", err)
		}
	})
}

func TestRenameMissingSourceIsENOENT(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/d", 0o755, 0, 0)
		if err := f.Rename(task, "/d/none", "/d/x"); !errors.Is(err, ENOENT) {
			t.Errorf("err = %v, want ENOENT", err)
		}
	})
}

func TestRenamePreservesOwnership(t *testing.T) {
	// gedit's window: rename(temp, real) makes real owned by temp's owner
	// (root), which is what the attacker's stat detects.
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/home/alice", 0o755, 1000, 1000)
		f.MustWriteFile("/home/alice/real", 100, 0o644, 1000, 1000)
		f.MustWriteFile("/home/alice/.tmp", 100, 0o644, 0, 0)
		if err := f.Rename(task, "/home/alice/.tmp", "/home/alice/real"); err != nil {
			t.Fatalf("rename: %v", err)
		}
		info, err := f.Stat(task, "/home/alice/real")
		if err != nil {
			t.Fatalf("stat: %v", err)
		}
		if info.UID != 0 {
			t.Errorf("uid after rename = %d, want 0", info.UID)
		}
	})
}

func TestOpenExclFailsOnExisting(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/d", 0o755, 0, 0)
		f.MustWriteFile("/d/f", 1, 0o644, 0, 0)
		if _, err := f.Open(task, "/d/f", OWrite|OCreate|OExcl, 0o600); !errors.Is(err, EEXIST) {
			t.Errorf("err = %v, want EEXIST", err)
		}
	})
}

func TestOpenTruncClearsFile(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/d", 0o755, 0, 0)
		f.MustWriteFile("/d/f", 2048, 0o644, 0, 0)
		file, err := f.Open(task, "/d/f", OWrite|OTrunc, 0)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		info, _ := f.Stat(task, "/d/f")
		if info.Size != 0 {
			t.Errorf("size after O_TRUNC = %d, want 0", info.Size)
		}
		if err := file.Close(task); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPermissionDeniedForOthers(t *testing.T) {
	harness(t, 1, defCfg(), 1000, 1000, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/secret", 0o700, 0, 0)
		f.MustWriteFile("/secret/f", 1, 0o600, 0, 0)
		if _, err := f.Stat(task, "/secret/f"); !errors.Is(err, EACCES) {
			t.Errorf("traverse err = %v, want EACCES", err)
		}
		f.MustMkdirAll("/shared", 0o755, 0, 0)
		f.MustWriteFile("/shared/rootfile", 1, 0o600, 0, 0)
		if _, err := f.Open(task, "/shared/rootfile", ORead, 0); !errors.Is(err, EACCES) {
			t.Errorf("open err = %v, want EACCES", err)
		}
		if err := f.Unlink(task, "/shared/rootfile"); !errors.Is(err, EACCES) {
			t.Errorf("unlink err = %v, want EACCES (no write perm on parent)", err)
		}
	})
}

func TestGroupPermissions(t *testing.T) {
	harness(t, 1, defCfg(), 1000, 500, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/g", 0o755, 0, 0)
		f.MustWriteFile("/g/grp", 1, 0o640, 0, 500)
		if _, err := f.Open(task, "/g/grp", ORead, 0); err != nil {
			t.Errorf("group read should succeed: %v", err)
		}
		if _, err := f.Open(task, "/g/grp", OWrite, 0); !errors.Is(err, EACCES) {
			t.Errorf("group write err = %v, want EACCES", err)
		}
	})
}

func TestStickyBitProtectsOthersFiles(t *testing.T) {
	harness(t, 1, defCfg(), 1000, 1000, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/tmp", 0o777|ModeSticky, 0, 0)
		f.MustWriteFile("/tmp/other", 1, 0o666, 2000, 2000)
		f.MustWriteFile("/tmp/mine", 1, 0o666, 1000, 1000)
		if err := f.Unlink(task, "/tmp/other"); !errors.Is(err, EACCES) {
			t.Errorf("sticky unlink err = %v, want EACCES", err)
		}
		if err := f.Rename(task, "/tmp/other", "/tmp/taken"); !errors.Is(err, EACCES) {
			t.Errorf("sticky rename err = %v, want EACCES", err)
		}
		if err := f.Rename(task, "/tmp/mine", "/tmp/other"); !errors.Is(err, EACCES) {
			t.Errorf("sticky rename over other's file err = %v, want EACCES", err)
		}
		if err := f.Unlink(task, "/tmp/mine"); err != nil {
			t.Errorf("unlink own file in sticky dir: %v", err)
		}
	})
}

// interruptAfter interrupts every blocked interruptible wait after delay.
type interruptAfter struct{ delay time.Duration }

func (i interruptAfter) SemBlocked(*sim.Thread, *sim.Sem) (time.Duration, bool) {
	return i.delay, true
}

func (interruptAfter) SemInterrupted(*sim.Thread) {}

// TestContendedDirectoryLockEINTR: an operation that blocks on a
// directory semaphore held by another thread returns EINTR when the wait
// is interrupted, and leaves the namespace untouched.
func TestContendedDirectoryLockEINTR(t *testing.T) {
	for name, op := range map[string]func(*sim.Task, *FS) error{
		"unlink":  func(task *sim.Task, f *FS) error { return f.Unlink(task, "/d/f") },
		"symlink": func(task *sim.Task, f *FS) error { return f.Symlink(task, "/d/f", "/d/l") },
		"rename":  func(task *sim.Task, f *FS) error { return f.Rename(task, "/d/f", "/d/g") },
	} {
		t.Run(name, func(t *testing.T) {
			k := sim.New(sim.Config{CPUs: 2, Quantum: 50 * time.Millisecond, Seed: 1,
				Interrupter: interruptAfter{delay: 10 * time.Microsecond}})
			f := New(defCfg())
			f.MustMkdirAll("/d", 0o777, 0, 0)
			f.MustWriteFile("/d/f", 64, 0o644, 0, 0)
			dir, err := f.lookupNoCharge("/d", true, 0)
			if err != nil {
				t.Fatal(err)
			}
			p := k.NewProcess("p", 0, 0)
			k.Spawn(p, "holder", func(task *sim.Task) {
				dir.isem().Acquire(task)
				task.Compute(time.Millisecond)
				dir.isem().Release(task)
			})
			var opErr error
			k.Spawn(p, "op", func(task *sim.Task) {
				task.Sleep(5 * time.Microsecond) // the holder takes the lock first
				opErr = op(task, f)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if !errors.Is(opErr, EINTR) {
				t.Errorf("err = %v, want EINTR", opErr)
			}
			if len(dir.children) != 1 || dir.children["f"] == nil {
				t.Errorf("/d holds %d entries after the interrupted %s, want just f", len(dir.children), name)
			}
		})
	}
}

func TestRootBypassesPermissions(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/locked", 0o000, 1000, 1000)
		f.MustWriteFile("/locked/f", 1, 0o000, 1000, 1000)
		if _, err := f.Stat(task, "/locked/f"); err != nil {
			t.Errorf("root stat: %v", err)
		}
		if err := f.Unlink(task, "/locked/f"); err != nil {
			t.Errorf("root unlink: %v", err)
		}
	})
}

func TestClosedFileOperationsFail(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/d", 0o755, 0, 0)
		file, err := f.Open(task, "/d/f", OWrite|OCreate, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if err := file.Close(task); err != nil {
			t.Fatal(err)
		}
		if err := file.Write(task, 10); !errors.Is(err, EBADF) {
			t.Errorf("write err = %v, want EBADF", err)
		}
		if err := file.Close(task); !errors.Is(err, EBADF) {
			t.Errorf("double close err = %v, want EBADF", err)
		}
	})
}

func TestWriteConsumesTimeProportionalToSize(t *testing.T) {
	var small, large time.Duration
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/d", 0o755, 0, 0)
		file, _ := f.Open(task, "/d/f", OWrite|OCreate, 0o644)
		t0 := task.Now()
		if err := file.Write(task, 1024); err != nil {
			t.Fatal(err)
		}
		small = task.Now().Sub(t0)
		t0 = task.Now()
		if err := file.Write(task, 64*1024); err != nil {
			t.Fatal(err)
		}
		large = task.Now().Sub(t0)
		if err := file.Close(task); err != nil {
			t.Fatal(err)
		}
	})
	if large < 15*small {
		t.Errorf("64KB write (%v) should cost much more than 1KB write (%v)", large, small)
	}
}

func TestUnlinkTruncationScalesWithSize(t *testing.T) {
	// §7: "The main part of unlink is spent physically truncating the file."
	elapsed := func(size int64) time.Duration {
		var d time.Duration
		harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
			f.MustMkdirAll("/d", 0o755, 0, 0)
			f.MustWriteFile("/d/f", size, 0o644, 0, 0)
			t0 := task.Now()
			if err := f.Unlink(task, "/d/f"); err != nil {
				t.Fatal(err)
			}
			d = task.Now().Sub(t0)
		})
		return d
	}
	small, big := elapsed(1024), elapsed(512*1024)
	if big < 30*small {
		t.Errorf("unlink(512KB)=%v should dwarf unlink(1KB)=%v", big, small)
	}
}

func TestLookupBlocksBehindRenameSwap(t *testing.T) {
	// A stat racing a rename of the same directory must wait for the
	// dentry swap and then observe the NEW binding — the mechanism that
	// synchronizes the attacker's detection with the start of the gedit
	// window (paper §6).
	k := sim.New(sim.Config{CPUs: 2, Quantum: 50 * time.Millisecond, Seed: 1})
	f := New(defCfg())
	f.MustMkdirAll("/home/alice", 0o777, 1000, 1000)
	f.MustWriteFile("/home/alice/real", 64, 0o644, 1000, 1000)
	f.MustWriteFile("/home/alice/.tmp", 64, 0o644, 0, 0)

	root := k.NewProcess("gedit", 0, 0)
	alice := k.NewProcess("attacker", 1000, 1000)
	var statUID = -1
	var statStart, statEnd, swapDone sim.Time
	k.Spawn(root, "rename", func(task *sim.Task) {
		if err := f.Rename(task, "/home/alice/.tmp", "/home/alice/real"); err != nil {
			t.Errorf("rename: %v", err)
		}
		swapDone = task.Now()
	})
	k.Spawn(alice, "stat", func(task *sim.Task) {
		// Delay so the stat lands inside the rename's swap phase
		// (the rename holds the directory locks from ~6.5µs to ~10.5µs).
		task.Compute(8 * time.Microsecond)
		statStart = task.Now()
		info, err := f.Stat(task, "/home/alice/real")
		statEnd = task.Now()
		if err != nil {
			t.Errorf("stat: %v", err)
			return
		}
		statUID = info.UID
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if statUID != 0 {
		t.Errorf("stat observed uid %d, want 0 (post-swap binding)", statUID)
	}
	if statEnd.Sub(statStart) < 2*time.Microsecond {
		t.Errorf("stat was not delayed by the rename swap: took %v", statEnd.Sub(statStart))
	}
	_ = swapDone
}

func TestChmodAppliesToPreResolvedInodeAfterRebinding(t *testing.T) {
	// TOCTTOU semantics at the heart of the cascade: when chmod's path
	// resolution completes before the attacker rebinds the name, the mode
	// change must land on the ORIGINAL inode even though the name now
	// points elsewhere. We orchestrate this deterministically: the chmod
	// thread resolves, then blocks on the inode semaphore held by a
	// long-running writer while the rebinding happens.
	k := sim.New(sim.Config{CPUs: 2, Quantum: 50 * time.Millisecond, Seed: 1})
	f := New(defCfg())
	f.MustMkdirAll("/etc", 0o755, 0, 0)
	f.MustWriteFile("/etc/passwd", 512, 0o644, 0, 0)
	f.MustMkdirAll("/w", 0o777, 0, 0)
	f.MustWriteFile("/w/f", 0, 0o600, 0, 0)

	rootp := k.NewProcess("root", 0, 0)
	origInfo, _ := f.LookupInfo("/w/f")
	k.Spawn(rootp, "writer", func(task *sim.Task) {
		file, err := f.Open(task, "/w/f", OWrite, 0)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		// Hold the inode semaphore for a long write.
		if err := file.Write(task, 10*1024*1024); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := file.Close(task); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	k.Spawn(rootp, "chmodder", func(task *sim.Task) {
		task.Compute(time.Microsecond) // let the writer grab the semaphore
		if err := f.Chmod(task, "/w/f", 0o444); err != nil {
			t.Errorf("chmod: %v", err)
		}
	})
	k.Spawn(rootp, "rebinder", func(task *sim.Task) {
		task.Compute(5 * time.Microsecond) // after chmod resolved and blocked
		if err := f.Unlink(task, "/w/f"); err != nil {
			t.Errorf("unlink: %v", err)
		}
		if err := f.Symlink(task, "/etc/passwd", "/w/f"); err != nil {
			t.Errorf("symlink: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// /etc/passwd must be untouched; the orphaned original inode got 0444.
	pw, _ := f.LookupInfo("/etc/passwd")
	if pw.Mode != 0o644 {
		t.Errorf("/etc/passwd mode = %o, chmod leaked through the rebinding", pw.Mode)
	}
	_ = origInfo
}

func TestGuardVeto(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/d", 0o755, 0, 0)
		f.MustWriteFile("/d/f", 1, 0o644, 0, 0)
		f.SetGuard(vetoGuard{op: OpUnlink})
		if err := f.Unlink(task, "/d/f"); !errors.Is(err, EACCES) {
			t.Errorf("guarded unlink err = %v, want EACCES", err)
		}
		if _, err := f.Stat(task, "/d/f"); err != nil {
			t.Errorf("file should survive vetoed unlink: %v", err)
		}
		f.SetGuard(nil)
		if err := f.Unlink(task, "/d/f"); err != nil {
			t.Errorf("unlink after guard removal: %v", err)
		}
	})
}

type vetoGuard struct{ op Op }

func (g vetoGuard) Before(t *sim.Task, op Op, path, path2 string, cred Cred) error {
	if op == g.op {
		return pathErr(op.String(), path, EACCES)
	}
	return nil
}

func (g vetoGuard) After(*sim.Task, Op, string, string, Cred, error) {}

func TestSyscallTraceEvents(t *testing.T) {
	tr := &sim.SliceTracer{}
	k := sim.New(sim.Config{CPUs: 1, Quantum: 50 * time.Millisecond, Seed: 1, Tracer: tr})
	f := New(defCfg())
	f.MustMkdirAll("/d", 0o755, 0, 0)
	p := k.NewProcess("p", 0, 0)
	k.Spawn(p, "main", func(task *sim.Task) {
		file, err := f.Open(task, "/d/f", OWrite|OCreate, 0o644)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		_ = file.Write(task, 8)
		_ = file.Close(task)
		_, _ = f.Stat(task, "/d/f")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range tr.Events {
		if e.Kind == sim.EvSyscallEnter {
			names = append(names, e.Label)
		}
	}
	want := []string{"open", "write", "close", "stat"}
	if len(names) != len(want) {
		t.Fatalf("syscalls = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("syscalls = %v, want %v", names, want)
		}
	}
	// The open must have emitted a name-bind with the creator's uid.
	sawBind := false
	for _, e := range tr.Events {
		if e.Kind == sim.EvNameBind && e.Path == "/d/f" && e.Arg == 0 {
			sawBind = true
		}
	}
	if !sawBind {
		t.Error("missing EvNameBind for created file")
	}
}

func TestRelativeSymlinkTarget(t *testing.T) {
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/etc", 0o755, 0, 0)
		f.MustWriteFile("/etc/passwd", 512, 0o644, 0, 0)
		// Relative target resolved against the link's directory.
		f.MustSymlink("passwd", "/etc/alias", 0, 0)
		info, err := f.Stat(task, "/etc/alias")
		if err != nil {
			t.Fatalf("stat through relative link: %v", err)
		}
		if info.Size != 512 {
			t.Errorf("size = %d, want 512", info.Size)
		}
		// Relative target with parent traversal.
		f.MustMkdirAll("/etc/sub", 0o755, 0, 0)
		f.MustSymlink("../passwd", "/etc/sub/up", 0, 0)
		if _, err := f.Stat(task, "/etc/sub/up"); err != nil {
			t.Errorf("stat through ../ link: %v", err)
		}
		// Oracle agrees.
		if _, err := f.LookupInfo("/etc/sub/up"); err != nil {
			t.Errorf("oracle through ../ link: %v", err)
		}
		// Mid-path relative link.
		f.MustSymlink("sub", "/etc/s", 0, 0)
		f.MustWriteFile("/etc/sub/file", 9, 0o644, 0, 0)
		got, err := f.Stat(task, "/etc/s/file")
		if err != nil || got.Size != 9 {
			t.Errorf("mid-path relative link: %+v, %v", got, err)
		}
	})
}

func TestFchownIgnoresRebinding(t *testing.T) {
	// fchown applies to the descriptor's inode even after the name is
	// rebound to a symlink — the application-level TOCTTOU fix.
	harness(t, 1, defCfg(), 0, 0, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/etc", 0o755, 0, 0)
		f.MustWriteFile("/etc/passwd", 512, 0o644, 0, 0)
		f.MustMkdirAll("/d", 0o777, 0, 0)
		file, err := f.Open(task, "/d/f", OWrite|OCreate, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		// The "attacker": rebind the name under the open descriptor.
		if err := f.Unlink(task, "/d/f"); err != nil {
			t.Fatal(err)
		}
		if err := f.Symlink(task, "/etc/passwd", "/d/f"); err != nil {
			t.Fatal(err)
		}
		if err := file.Chown(task, 1000, 1000); err != nil {
			t.Fatalf("fchown: %v", err)
		}
		if err := file.Close(task); err != nil {
			t.Fatal(err)
		}
		pw, _ := f.LookupInfo("/etc/passwd")
		if pw.UID != 0 {
			t.Errorf("passwd uid = %d; fchown must not follow the rebound name", pw.UID)
		}
	})
}

func TestFchmodAndPermissions(t *testing.T) {
	harness(t, 1, defCfg(), 1000, 1000, func(task *sim.Task, f *FS) {
		f.MustMkdirAll("/d", 0o777, 0, 0)
		f.MustWriteFile("/d/mine", 1, 0o644, 1000, 1000)
		file, err := f.Open(task, "/d/mine", OWrite, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := file.Chmod(task, 0o600); err != nil {
			t.Errorf("fchmod own file: %v", err)
		}
		if err := file.Chown(task, 1001, 1001); !errors.Is(err, EPERM) {
			t.Errorf("non-root fchown err = %v, want EPERM", err)
		}
		if err := file.Close(task); err != nil {
			t.Fatal(err)
		}
		if err := file.Chmod(task, 0o644); !errors.Is(err, EBADF) {
			t.Errorf("fchmod after close err = %v, want EBADF", err)
		}
	})
}
