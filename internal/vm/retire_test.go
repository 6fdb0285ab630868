package vm_test

import (
	"fmt"
	"testing"

	"springfs"
	"springfs/internal/vm"
)

// TestRetireFreesFileCaches checks that a pager's DestroyCache takes the
// file cache out of the VMM: after many create/write/fsync/unlink cycles
// through SFS the VMM tracks as many file caches as it started with.
// Before, every file ever mapped kept its FileCache for good.
func TestRetireFreesFileCaches(t *testing.T) {
	node := springfs.NewNode("retire")
	defer node.Stop()
	sfs, err := node.NewSFS("sfs", springfs.DiskOptions{Blocks: 1024})
	if err != nil {
		t.Fatal(err)
	}
	fs := sfs.FS()
	before := node.VMM().FileCaches()
	payload := make([]byte, 4*vm.PageSize)
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("cycle%d", i)
		if err := springfs.WriteFile(fs, name, payload); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open(name, springfs.Root)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove(name, springfs.Root); err != nil {
			t.Fatal(err)
		}
	}
	if got := node.VMM().FileCaches(); got != before {
		t.Errorf("VMM file caches = %d after the cycles, want %d", got, before)
	}
}
