package userland

import (
	"testing"
	"time"

	"tocttou/internal/fs"
	"tocttou/internal/sim"
)

// run executes fn as a single thread over a fresh kernel/FS and returns
// the collected trace.
func run(t *testing.T, prefaulted bool, fn func(c *Libc)) []sim.Event {
	t.Helper()
	tr := &sim.SliceTracer{}
	k := sim.New(sim.Config{CPUs: 1, Quantum: 50 * time.Millisecond, Seed: 1, Tracer: tr})
	f := fs.New(fs.Config{Latency: fs.DefaultProfile()})
	f.MustMkdirAll("/d", 0o777, 0, 0)
	f.MustWriteFile("/d/f", 128, 0o644, 0, 0)
	p := k.NewProcess("p", 0, 0)
	img := NewImage(6*time.Microsecond, prefaulted)
	k.Spawn(p, "main", func(task *sim.Task) {
		fn(Bind(task, f, img))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return tr.Events
}

func countTraps(events []sim.Event) int {
	n := 0
	for _, e := range events {
		if e.Kind == sim.EvTrap {
			n++
		}
	}
	return n
}

func TestColdImageTrapsOncePerPage(t *testing.T) {
	events := run(t, false, func(c *Libc) {
		_, _ = c.Stat("/d/f")
		_, _ = c.Stat("/d/f") // same page: no second trap
		_ = c.Unlink("/d/f")
		_ = c.Symlink("/etc/x", "/d/f") // shares the unlink page
	})
	if got := countTraps(events); got != 2 {
		t.Errorf("traps = %d, want 2 (stat page + unlink/symlink page)", got)
	}
}

func TestPrefaultedImageNeverTraps(t *testing.T) {
	events := run(t, true, func(c *Libc) {
		_, _ = c.Stat("/d/f")
		_ = c.Unlink("/d/f")
		_ = c.Symlink("/etc/x", "/d/f")
		_ = c.Rename("/d/f", "/d/g")
		_ = c.Chmod("/d/g", 0o600)
	})
	if got := countTraps(events); got != 0 {
		t.Errorf("traps = %d, want 0 for prefaulted image", got)
	}
}

func TestTrapChargesTime(t *testing.T) {
	var coldDur, warmDur sim.Time
	run(t, false, func(c *Libc) {
		start := c.Task().Now()
		_, _ = c.Stat("/d/f")
		coldDur = sim.Time(c.Task().Now() - start)
	})
	run(t, true, func(c *Libc) {
		start := c.Task().Now()
		_, _ = c.Stat("/d/f")
		warmDur = sim.Time(c.Task().Now() - start)
	})
	diff := time.Duration(coldDur - warmDur)
	if diff < 4*time.Microsecond || diff > 9*time.Microsecond {
		t.Errorf("cold-warm difference = %v, want ≈6µs trap", diff)
	}
}

func TestUnlinkSymlinkSharePage(t *testing.T) {
	events := run(t, false, func(c *Libc) {
		_ = c.Symlink("/etc/x", "/d/link") // faults the shared page
		_ = c.Unlink("/d/link")            // must not trap again
	})
	if got := countTraps(events); got != 1 {
		t.Errorf("traps = %d, want 1 (shared stub page, §6.2.2)", got)
	}
}

func TestImageSharedAcrossThreads(t *testing.T) {
	// Two threads of one process share the faulted-page table, like the
	// pipelined attacker's symlinker warming pages for the main thread.
	tr := &sim.SliceTracer{}
	k := sim.New(sim.Config{CPUs: 2, Quantum: 50 * time.Millisecond, Seed: 1, Tracer: tr})
	f := fs.New(fs.Config{Latency: fs.DefaultProfile()})
	f.MustMkdirAll("/d", 0o777, 0, 0)
	p := k.NewProcess("p", 0, 0)
	img := NewImage(6*time.Microsecond, false)
	k.Spawn(p, "warmer", func(task *sim.Task) {
		c := Bind(task, f, img)
		_ = c.Symlink("/x", "/d/warm")
	})
	k.Spawn(p, "worker", func(task *sim.Task) {
		task.Compute(time.Millisecond) // run after the warmer
		c := Bind(task, f, img)
		_ = c.Unlink("/d/warm")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := countTraps(tr.Events); got != 1 {
		t.Errorf("traps = %d, want 1 (image shared within process)", got)
	}
}

func TestLibcPassThroughSemantics(t *testing.T) {
	run(t, true, func(c *Libc) {
		info, err := c.Stat("/d/f")
		if err != nil || info.Size != 128 {
			t.Errorf("stat = %+v, %v", info, err)
		}
		fh, err := c.Open("/d/new", fs.OWrite|fs.OCreate, 0o644)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := c.Write(fh, 64); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := c.Fsync(fh); err != nil {
			t.Errorf("fsync: %v", err)
		}
		if err := c.Close(fh); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := c.Symlink("/d/new", "/d/soft"); err != nil {
			t.Errorf("symlink: %v", err)
		}
		if err := c.Chown("/d/new", 5, 5); err != nil {
			t.Errorf("chown: %v", err)
		}
		li, err := c.Lstat("/d/soft")
		if err != nil || li.Type != fs.TypeSymlink || li.Target != "/d/new" {
			t.Errorf("lstat = %+v, %v", li, err)
		}
	})
}

func TestFsyncBlocksOnIO(t *testing.T) {
	events := run(t, true, func(c *Libc) {
		fh, err := c.Open("/d/f", fs.OWrite, 0)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := c.Fsync(fh); err != nil {
			t.Errorf("fsync: %v", err)
		}
	})
	sawIO := false
	for _, e := range events {
		if e.Kind == sim.EvIOBlock {
			sawIO = true
		}
	}
	if !sawIO {
		t.Error("fsync must block on I/O")
	}
}
