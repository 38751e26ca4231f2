package fs

import (
	"errors"
	"fmt"
	"testing"
)

func TestErrnoNames(t *testing.T) {
	cases := map[Errno]string{
		EPERM: "EPERM", ENOENT: "ENOENT", EACCES: "EACCES", EEXIST: "EEXIST",
		ENOTDIR: "ENOTDIR", EISDIR: "EISDIR", EINVAL: "EINVAL",
		ENOTEMPTY: "ENOTEMPTY", ELOOP: "ELOOP", EBADF: "EBADF",
	}
	for e, want := range cases {
		if e.Error() != want {
			t.Errorf("%d.Error() = %q, want %q", int(e), e.Error(), want)
		}
	}
	if Errno(999).Error() != "errno(999)" {
		t.Errorf("unknown errno = %q", Errno(999).Error())
	}
}

func TestPathError(t *testing.T) {
	err := pathErr("unlink", "/x/y", ENOENT)
	if !errors.Is(err, ENOENT) {
		t.Error("PathError must unwrap to its errno")
	}
	if got := err.Error(); got != "unlink /x/y: ENOENT" {
		t.Errorf("message = %q", got)
	}
}

func TestErrnoOf(t *testing.T) {
	if got := ErrnoOf(pathErr("x", "/p", EACCES)); got != EACCES {
		t.Errorf("ErrnoOf(PathError) = %v", got)
	}
	if got := ErrnoOf(fmt.Errorf("wrapped: %w", pathErr("x", "/p", ELOOP))); got != ELOOP {
		t.Errorf("ErrnoOf(wrapped) = %v", got)
	}
	if got := ErrnoOf(errors.New("plain")); got != 0 {
		t.Errorf("ErrnoOf(plain) = %v, want 0", got)
	}
	if got := ErrnoOf(nil); got != 0 {
		t.Errorf("ErrnoOf(nil) = %v, want 0", got)
	}
}

func TestStringers(t *testing.T) {
	if TypeRegular.String() != "file" || TypeDir.String() != "dir" || TypeSymlink.String() != "symlink" {
		t.Error("FileType names wrong")
	}
	if FileType(9).String() != "type(9)" {
		t.Errorf("unknown type = %q", FileType(9).String())
	}
	if OpUnlink.String() != "unlink" || OpRename.String() != "rename" || OpChown.String() != "chown" {
		t.Error("Op names wrong")
	}
	// Fault plans store Op numbers, so a removed operation leaves a gap.
	if OpStat != 1 || OpWrite != 6 || OpSymlink != 9 || OpRename != 11 || OpChown != 13 {
		t.Error("Op numbers moved")
	}
	for _, o := range []Op{5, 10, 99} {
		if want := fmt.Sprintf("op(%d)", o); o.String() != want {
			t.Errorf("unknown op = %q, want %q", o.String(), want)
		}
	}
}
