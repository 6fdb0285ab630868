package conformance

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"springfs"
	"springfs/internal/naming"
	"springfs/internal/unixapi"
	"springfs/internal/vm"
)

// TestInodeReuseStale is the regression test for a data-leak bug the sparse
// check first exposed: the disk layer keys pager-cache connections by inode
// number, so when an unlinked file's inode was reallocated, the VMM served
// the dead file's cached pages to the new file. The fix purges cached pages
// whenever an inode is freed (unlink, rename-over, last-close reclaim) or a
// file is truncated.
func TestInodeReuseStale(t *testing.T) {
	s, err := BuildStack("disk")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := s.NewProcess()
	if err != nil {
		t.Fatal(err)
	}

	// Populate a file (its first page is now warm in the VMM), truncate it,
	// and unlink it so its inode goes back to the pool.
	fd, err := p.Open("a.txt", unixapi.O_CREAT|unixapi.O_EXCL|unixapi.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, []byte("content")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
	fd, err = p.Open("a.txt", unixapi.O_TRUNC|unixapi.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := p.Unlink("a.txt"); err != nil {
		t.Fatal(err)
	}

	// A fresh file reuses the inode; a sparse write keeps offset 0 a hole.
	// Reading the hole must yield zeros, not the dead file's cached page.
	fd, err = p.Open("b.bin", unixapi.O_CREAT|unixapi.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(fd)
	if _, err := p.Pwrite(fd, []byte{0xAA}, 262144); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := p.Pread(fd, buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if buf[i] != 0 {
			t.Fatalf("hole byte %d reads %#x (stale data from the unlinked file), want 0", i, buf[i])
		}
	}
}

// TestInodeReuseConcurrentSync is the regression test for a data-loss race
// between unlink and create over SFS. Unlink used to tear down the freed
// inode's cached pages after releasing the disk layer's lock, looking the
// connections up by inode number; a concurrent create could reuse the
// number and bind in that window, and the teardown then discarded the new
// file's dirty pages, so an fsynced page read back as zeros. The disk
// layer now takes a freed inode's connections out of its table under the
// lock, before the number can be reused.
func TestInodeReuseConcurrentSync(t *testing.T) {
	runReuseWorkers(t, false)
}

// TestInodeReuseConcurrentLastClose is the same race on the other path that
// frees an inode: each file is unlinked while still open, and its last
// close, which reclaims the inode, races the other worker's creates. The
// reclaim's journal commit releases the disk layer's lock, so the file
// must be retired inside the transaction, not after it.
func TestInodeReuseConcurrentLastClose(t *testing.T) {
	runReuseWorkers(t, true)
}

// runReuseWorkers runs two workers over one SFS, each cycling through
// create, 16 x 4 KB pwrite, fsync, read-back of every page, and removal of
// its previous file; it fails on any page that reads back wrong after a
// successful fsync. With openUnlink, the previous file is unlinked while
// still open and then closed (the last close frees it); otherwise it is
// closed first and then unlinked.
func runReuseWorkers(t *testing.T, openUnlink bool) {
	const (
		workers = 2
		pages   = 16
	)
	cycles := 1500
	if testing.Short() {
		cycles = 300
	}
	node := springfs.NewNode("reuse-race")
	defer node.Stop()
	sfs, err := node.NewSFS("sfs", springfs.DiskOptions{Blocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	fill := func(buf []byte, w, cycle, pg int) {
		for i := range buf {
			buf[i] = byte(w*131 + cycle*31 + pg*7 + i%251 + 1)
		}
	}
	var wg sync.WaitGroup
	bad := make([]int, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := unixapi.NewProcess(sfs.FS(), naming.Root)
			buf := make([]byte, vm.PageSize)
			want := make([]byte, vm.PageSize)
			prev, prevFd := "", -1
			for c := 0; c < cycles; c++ {
				name := fmt.Sprintf("w%d-%d", w, c)
				fd, err := syncCycle(p, name, pages, func(pg int, b []byte) { fill(b, w, c, pg) }, buf, want, &bad[w])
				if err == nil && !openUnlink {
					err = p.Close(fd)
				}
				if err == nil && prev != "" {
					err = p.Unlink(prev)
				}
				if err == nil && openUnlink && prevFd >= 0 {
					err = p.Close(prevFd)
				}
				if err != nil {
					errs[w] = fmt.Errorf("cycle %d: %w", c, err)
					return
				}
				prev, prevFd = name, fd
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Errorf("worker %d: %v", w, errs[w])
		}
		if bad[w] > 0 {
			t.Errorf("worker %d: %d pages read back wrong after a successful fsync (of %d cycles x %d pages)", w, bad[w], cycles, pages)
		}
	}
}

// syncCycle creates name, writes pages pages with fill, fsyncs, and reads
// every page back, counting the pages whose content differs. It returns
// the open descriptor.
func syncCycle(p *unixapi.Process, name string, pages int, fill func(pg int, b []byte), buf, want []byte, bad *int) (int, error) {
	fd, err := p.Open(name, unixapi.O_RDWR|unixapi.O_CREAT|unixapi.O_EXCL)
	if err != nil {
		return -1, err
	}
	for pg := 0; pg < pages; pg++ {
		fill(pg, buf)
		if _, err := p.Pwrite(fd, buf, int64(pg)*vm.PageSize); err != nil {
			return -1, err
		}
	}
	if err := p.Fsync(fd); err != nil {
		return -1, err
	}
	for pg := 0; pg < pages; pg++ {
		if _, err := p.Pread(fd, buf, int64(pg)*vm.PageSize); err != nil {
			return -1, err
		}
		fill(pg, want)
		if !bytes.Equal(buf, want) {
			*bad++
		}
	}
	return fd, nil
}
