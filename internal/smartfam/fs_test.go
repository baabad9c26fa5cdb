package smartfam

import (
	"bytes"
	"errors"
	"testing"
)

func TestDirFSCreateAppendRead(t *testing.T) {
	fsys := DirFS(t.TempDir())
	if err := fsys.Create("a.log"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Append("a.log", []byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Append("a.log", []byte("world")); err != nil {
		t.Fatal(err)
	}
	size, _, err := fsys.Stat("a.log")
	if err != nil {
		t.Fatal(err)
	}
	if size != 11 {
		t.Fatalf("size = %d, want 11", size)
	}
	buf := make([]byte, 5)
	if _, err := fsys.ReadAt("a.log", buf, 6); err != nil && err.Error() != "EOF" {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("ReadAt = %q, want world", buf)
	}
}

func TestDirFSAppendCreatesFile(t *testing.T) {
	fsys := DirFS(t.TempDir())
	if err := fsys.Append("new.log", []byte("x")); err != nil {
		t.Fatal(err)
	}
	size, _, err := fsys.Stat("new.log")
	if err != nil || size != 1 {
		t.Fatalf("stat after append-create: size=%d err=%v", size, err)
	}
}

func TestDirFSCreateTruncates(t *testing.T) {
	fsys := DirFS(t.TempDir())
	if err := fsys.Append("a.log", []byte("old content")); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Create("a.log"); err != nil {
		t.Fatal(err)
	}
	size, _, err := fsys.Stat("a.log")
	if err != nil || size != 0 {
		t.Fatalf("create did not truncate: size=%d err=%v", size, err)
	}
}

func TestDirFSStatMissing(t *testing.T) {
	fsys := DirFS(t.TempDir())
	if _, _, err := fsys.Stat("nope.log"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestDirFSListSorted(t *testing.T) {
	fsys := DirFS(t.TempDir())
	for _, n := range []string{"c.log", "a.log", "b.log"} {
		if err := fsys.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	names, err := fsys.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "a.log" || names[2] != "c.log" {
		t.Fatalf("List = %v", names)
	}
}

func TestDirFSRemove(t *testing.T) {
	fsys := DirFS(t.TempDir())
	if err := fsys.Create("a.log"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove("a.log"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove("a.log"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("second remove err = %v, want ErrNotExist", err)
	}
}

func TestDirFSRejectsPathEscapes(t *testing.T) {
	fsys := DirFS(t.TempDir())
	for _, bad := range []string{"", ".", "..", "a/b.log", `a\b.log`, "../escape"} {
		if err := fsys.Create(bad); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
}

func TestReadFrom(t *testing.T) {
	fsys := DirFS(t.TempDir())
	if err := fsys.Append("a.log", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(fsys, "a.log", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("456789")) {
		t.Fatalf("ReadFrom = %q", got)
	}
	// Offset at/after end: empty, no error.
	got, err = ReadFrom(fsys, "a.log", 10)
	if err != nil || len(got) != 0 {
		t.Fatalf("ReadFrom at EOF = (%q, %v)", got, err)
	}
	got, err = ReadFrom(fsys, "a.log", 99)
	if err != nil || len(got) != 0 {
		t.Fatalf("ReadFrom past EOF = (%q, %v)", got, err)
	}
}
