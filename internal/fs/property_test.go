package fs

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tocttou/internal/sim"
)

// modelFile mirrors what the simulated FS should believe about one name.
type modelFile struct {
	typ    FileType
	uid    int
	gid    int
	mode   Mode
	size   int64
	target string
}

// TestNamespaceAgainstModel drives a random operation sequence against
// both the simulated FS and a trivial reference model of a flat directory,
// then cross-checks every name after each operation. This is the
// property-based safety net for the namespace semantics all the attack
// dynamics depend on.
func TestNamespaceAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runNamespaceModel(t, seed, 400)
		})
	}
}

func runNamespaceModel(t *testing.T, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k := sim.New(sim.Config{CPUs: 1, Quantum: time.Second, Seed: seed})
	f := New(Config{Latency: DefaultProfile()})
	f.MustMkdirAll("/d", 0o777, 0, 0)
	f.MustWriteFile("/ext", 64, 0o644, 0, 0)

	model := map[string]*modelFile{}
	names := []string{"a", "b", "c", "dd", "e"}
	path := func(n string) string { return "/d/" + n }

	p := k.NewProcess("fuzzer", 0, 0)
	k.Spawn(p, "fuzz", func(task *sim.Task) {
		for i := 0; i < steps; i++ {
			n := names[rng.Intn(len(names))]
			switch rng.Intn(6) {
			case 0: // create
				fh, err := f.Open(task, path(n), OWrite|OCreate|OTrunc, 0o644)
				if err != nil {
					if model[n] != nil && model[n].typ == TypeDir {
						continue
					}
					if errors.Is(err, ELOOP) {
						continue // created through a dangling/looping symlink
					}
					if m := model[n]; m != nil && m.typ == TypeSymlink {
						continue // followed the link elsewhere; model stays flat
					}
					t.Fatalf("step %d: create %s: %v", i, n, err)
				}
				size := int64(rng.Intn(8192))
				if err := fh.Write(task, size); err != nil {
					t.Fatalf("step %d: write: %v", i, err)
				}
				if err := fh.Close(task); err != nil {
					t.Fatalf("step %d: close: %v", i, err)
				}
				switch m := model[n]; {
				case m == nil:
					model[n] = &modelFile{typ: TypeRegular, uid: 0, gid: 0, mode: 0o644, size: size}
				case m.typ == TypeRegular:
					// O_TRUNC replaced content in place; the inode
					// keeps uid/mode.
					m.size = size
				}
			case 1: // unlink
				err := f.Unlink(task, path(n))
				if model[n] == nil {
					if !errors.Is(err, ENOENT) {
						t.Fatalf("step %d: unlink missing %s: err=%v, want ENOENT", i, n, err)
					}
				} else if err != nil {
					t.Fatalf("step %d: unlink %s: %v", i, n, err)
				} else {
					delete(model, n)
				}
			case 2: // symlink to /ext
				err := f.Symlink(task, "/ext", path(n))
				if model[n] != nil {
					if !errors.Is(err, EEXIST) {
						t.Fatalf("step %d: symlink over %s: err=%v, want EEXIST", i, n, err)
					}
				} else if err != nil {
					t.Fatalf("step %d: symlink %s: %v", i, n, err)
				} else {
					model[n] = &modelFile{typ: TypeSymlink, uid: 0, gid: 0, mode: 0o777, target: "/ext", size: 4}
				}
			case 3: // rename
				m2 := names[rng.Intn(len(names))]
				err := f.Rename(task, path(n), path(m2))
				switch {
				case model[n] == nil:
					if !errors.Is(err, ENOENT) {
						t.Fatalf("step %d: rename missing %s: err=%v", i, n, err)
					}
				case err != nil:
					t.Fatalf("step %d: rename %s->%s: %v", i, n, m2, err)
				default:
					model[m2] = model[n] // same inode moves
					if m2 != n {
						delete(model, n)
					}
				}
			case 4: // chown (no follow for symlinks in the model: use Lstat semantics via regular chown only on non-symlinks)
				if m := model[n]; m != nil && m.typ == TypeRegular {
					uid := rng.Intn(3) * 1000
					if err := f.Chown(task, path(n), uid, uid); err != nil {
						t.Fatalf("step %d: chown %s: %v", i, n, err)
					}
					m.uid, m.gid = uid, uid
				}
			case 5: // chmod
				if m := model[n]; m != nil && m.typ == TypeRegular {
					mode := Mode(0o600 + rng.Intn(0o200))
					if err := f.Chmod(task, path(n), mode); err != nil {
						t.Fatalf("step %d: chmod %s: %v", i, n, err)
					}
					m.mode = mode
				}
			}
			checkModel(t, task, f, model, names, path, i)
			if t.Failed() {
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func checkModel(t *testing.T, task *sim.Task, f *FS, model map[string]*modelFile, names []string, path func(string) string, step int) {
	t.Helper()
	for _, n := range names {
		info, err := f.Lstat(task, path(n))
		m := model[n]
		if m == nil {
			if !errors.Is(err, ENOENT) {
				t.Errorf("step %d: %s should be absent, got %+v err=%v", step, n, info, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("step %d: %s should exist: %v", step, n, err)
			continue
		}
		if info.Type != m.typ {
			t.Errorf("step %d: %s type = %v, want %v", step, n, info.Type, m.typ)
		}
		if m.typ == TypeRegular {
			if info.Size != m.size {
				t.Errorf("step %d: %s size = %d, want %d", step, n, info.Size, m.size)
			}
			if info.UID != m.uid {
				t.Errorf("step %d: %s uid = %d, want %d", step, n, info.UID, m.uid)
			}
			if info.Mode != m.mode {
				t.Errorf("step %d: %s mode = %o, want %o", step, n, info.Mode, m.mode)
			}
		}
		if m.typ == TypeSymlink && info.Target != m.target {
			t.Errorf("step %d: %s target = %q, want %q", step, n, info.Target, m.target)
		}
	}
}

// TestConcurrentNamespaceStress hammers one directory from several threads
// on several CPUs: the invariant is that the FS never deadlocks, never
// corrupts the tree (root stays resolvable), and inode accounting stays
// consistent at the end.
func TestConcurrentNamespaceStress(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		k := sim.New(sim.Config{CPUs: 4, Quantum: time.Millisecond, Seed: seed})
		f := New(Config{Latency: DefaultProfile()})
		f.MustMkdirAll("/d", 0o777, 0, 0)
		p := k.NewProcess("stress", 0, 0)
		for w := 0; w < 4; w++ {
			w := w
			k.Spawn(p, fmt.Sprintf("w%d", w), func(task *sim.Task) {
				rng := rand.New(rand.NewSource(seed*100 + int64(w)))
				name := fmt.Sprintf("/d/f%d", w)
				other := fmt.Sprintf("/d/f%d", (w+1)%4)
				for i := 0; i < 200; i++ {
					switch rng.Intn(5) {
					case 0:
						if fh, err := f.Open(task, name, OWrite|OCreate, 0o644); err == nil {
							_ = fh.Write(task, int64(rng.Intn(4096)))
							_ = fh.Close(task)
						}
					case 1:
						_ = f.Unlink(task, name)
					case 2:
						_ = f.Symlink(task, other, name)
					case 3:
						_ = f.Rename(task, name, other)
					case 4:
						_, _ = f.Stat(task, other)
					}
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := f.LookupInfo("/d"); err != nil {
			t.Fatalf("seed %d: directory lost: %v", seed, err)
		}
		if f.InodeCount() < 2 {
			t.Fatalf("seed %d: inode accounting broken: %d", seed, f.InodeCount())
		}
	}
}

// TestTimedResolverMatchesOracle cross-checks the charged, lock-aware
// resolver against the untimed fixture resolver on randomized trees with
// symlinks: both must agree on existence and identity for every probe.
func TestTimedResolverMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.New(sim.Config{CPUs: 1, Quantum: time.Second, Seed: seed})
		f := New(Config{Latency: DefaultProfile()})

		// Random tree: directories, files, and symlinks to random paths.
		var paths []string
		dirs := []string{"/"}
		for i := 0; i < 40; i++ {
			parent := dirs[rng.Intn(len(dirs))]
			name := fmt.Sprintf("n%d", i)
			p := parent + name
			if parent != "/" {
				p = parent + "/" + name
			}
			switch rng.Intn(3) {
			case 0:
				f.MustMkdirAll(p, 0o755, 0, 0)
				dirs = append(dirs, p)
			case 1:
				f.MustWriteFile(p, int64(rng.Intn(1000)), 0o644, 0, 0)
			case 2:
				target := "/nowhere"
				if len(paths) > 0 {
					target = paths[rng.Intn(len(paths))]
				}
				f.MustSymlink(target, p, 0, 0)
			}
			paths = append(paths, p)
		}

		p := k.NewProcess("probe", 0, 0)
		k.Spawn(p, "probe", func(task *sim.Task) {
			for _, probe := range paths {
				timedInfo, timedErr := f.Stat(task, probe)
				oracleInfo, oracleErr := f.LookupInfo(probe)
				if (timedErr == nil) != (oracleErr == nil) {
					t.Errorf("seed %d: %s: timed err %v vs oracle err %v",
						seed, probe, timedErr, oracleErr)
					continue
				}
				if timedErr == nil && timedInfo.Ino != oracleInfo.Ino {
					t.Errorf("seed %d: %s: timed ino %d vs oracle ino %d",
						seed, probe, timedInfo.Ino, oracleInfo.Ino)
				}
				// ELOOP classification must agree too.
				if timedErr != nil && errors.Is(timedErr, ELOOP) != errors.Is(oracleErr, ELOOP) {
					t.Errorf("seed %d: %s: loop classification differs: %v vs %v",
						seed, probe, timedErr, oracleErr)
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestCrossDirectoryRenameNoDeadlock drives opposing renames between two
// directories from two CPUs: the ino-ordered parent locking must never
// ABBA-deadlock.
func TestCrossDirectoryRenameNoDeadlock(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		k := sim.New(sim.Config{CPUs: 2, Quantum: time.Millisecond, Seed: seed})
		f := New(Config{Latency: DefaultProfile()})
		f.MustMkdirAll("/a", 0o777, 0, 0)
		f.MustMkdirAll("/b", 0o777, 0, 0)
		f.MustWriteFile("/a/x", 16, 0o644, 0, 0)
		f.MustWriteFile("/b/y", 16, 0o644, 0, 0)
		p := k.NewProcess("movers", 0, 0)
		k.Spawn(p, "ab", func(task *sim.Task) {
			for i := 0; i < 100; i++ {
				_ = f.Rename(task, "/a/x", "/b/x")
				_ = f.Rename(task, "/b/x", "/a/x")
			}
		})
		k.Spawn(p, "ba", func(task *sim.Task) {
			for i := 0; i < 100; i++ {
				_ = f.Rename(task, "/b/y", "/a/y")
				_ = f.Rename(task, "/a/y", "/b/y")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatalf("seed %d: %v (ABBA deadlock?)", seed, err)
		}
	}
}
