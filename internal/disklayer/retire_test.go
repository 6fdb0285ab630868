package disklayer

import (
	"fmt"
	"testing"

	"springfs/internal/coherency"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// TestRetireBoundsConnections checks that freeing an inode retires its
// pager-cache connections: after many create/write/fsync/unlink cycles the
// connection table is back to its starting size, both with the VMM bound
// directly to disk files and with a coherency layer on top (SFS). Before,
// connections of freed inodes stayed in the table for good, and every
// unlink scanned all of them.
func TestRetireBoundsConnections(t *testing.T) {
	cases := []struct {
		name string
		top  func(r *rig) fsys.FS
	}{
		{"disk", func(r *rig) fsys.FS { return r.fs }},
		{"sfs", func(r *rig) fsys.FS {
			coh := coherency.New(spring.NewDomain(r.node, "coherency"), r.vmm, "sfs")
			if err := coh.StackOn(r.fs); err != nil {
				t.Fatal(err)
			}
			return coh
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1024)
			top := tc.top(r)
			before := r.fs.table.Len()
			payload := make([]byte, 4*vm.PageSize)
			for i := 0; i < 1000; i++ {
				name := fmt.Sprintf("cycle%d", i)
				f, err := top.Create(name, naming.Root)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt(payload, 0); err != nil {
					t.Fatal(err)
				}
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
				if err := top.Remove(name, naming.Root); err != nil {
					t.Fatal(err)
				}
			}
			if got := r.fs.table.Len(); got != before {
				t.Errorf("disk connections = %d after the cycles, want %d", got, before)
			}
		})
	}
}

// TestRetiredFileRefusesIO checks that a stale reference to a freed file
// neither reads nor writes, binds, or changes attributes: its inode number
// may already belong to a new file.
func TestRetiredFileRefusesIO(t *testing.T) {
	r := newRig(t, 512)
	f, err := r.fs.Create("gone", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	stale := f.(*diskFile)
	pager := &diskPager{file: stale}
	if err := r.fs.Remove("gone", naming.Root); err != nil {
		t.Fatal(err)
	}
	// The freed inode is reused by the next file.
	g, err := r.fs.Create("new", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if g.(*diskFile).ino != stale.ino {
		t.Skip("inode number not reused")
	}
	conns := r.fs.table.Len()
	if _, err := pager.PageIn(0, BlockSize, vm.RightsRead); err == nil {
		t.Error("page-in from a freed file succeeded")
	}
	page := make([]byte, BlockSize)
	page[0] = 0xEE
	if err := pager.PageOut(0, BlockSize, page); err != nil {
		t.Fatal(err)
	}
	if _, err := stale.Bind(r.vmm, vm.RightsWrite, 0, 0); err == nil {
		t.Error("bind to a freed file succeeded")
	}
	if got := r.fs.table.Len(); got != conns {
		t.Errorf("bind to a freed file left %d connections, want %d", got, conns)
	}
	if err := stale.SetLength(3 * BlockSize); err == nil {
		t.Error("SetLength on a freed file succeeded")
	}
	if err := pager.SetAttributes(fsys.Attributes{Length: 2 * BlockSize}); err == nil {
		t.Error("SetAttributes through a freed file's pager succeeded")
	}
	if _, err := stale.Stat(); err == nil {
		t.Error("Stat of a freed file succeeded")
	}
	if attrs, err := g.Stat(); err != nil || attrs.Length != 0 {
		t.Errorf("new file: length %d, err %v; want 0, nil", attrs.Length, err)
	}
	buf := make([]byte, 1)
	if n, _ := g.ReadAt(buf, 0); n != 0 {
		t.Errorf("stale page-out reached the new file: read %d bytes (%#x)", n, buf[0])
	}
}

// TestReadAheadClusterStopsAtEOF: an explicit cluster (minSize == maxSize)
// faulting near the end of file reads up to the end of file, not past it.
func TestReadAheadClusterStopsAtEOF(t *testing.T) {
	r := newRig(t, 512)
	f, err := r.fs.Create("short", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 3*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	pager := &diskPager{file: f.(*diskFile)}
	data, err := pager.PageInHint(BlockSize, 8*BlockSize, 8*BlockSize, vm.RightsRead)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(data) / BlockSize; got != 2 {
		t.Errorf("cluster at block 1 of a 3-block file served %d blocks, want 2", got)
	}
}
