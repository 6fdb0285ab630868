package coherency

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"springfs/internal/naming"
	"springfs/internal/vm"
)

// TestRetireBoundsState checks that files freed below leave nothing
// behind in this layer: the disk layer destroys a freed inode's cache
// connections, the coherency file retires, and its own connections,
// block map and wrapper go with it. Before, every create/unlink cycle
// left a wrapper, its blocks and its connections in the layer for good.
// Four workers unlink at once, as many as a domain has server threads,
// so a teardown that called back into the domain serving it would hang.
func TestRetireBoundsState(t *testing.T) {
	const workers, cycles = 4, 250
	for _, sameDomain := range []bool{true, false} {
		name := map[bool]string{true: "one domain", false: "two domains"}[sameDomain]
		t.Run(name, func(t *testing.T) {
			r := newSFS(t, sameDomain)
			conns, files, keys := r.coh.table.Len(), len(r.coh.files), len(r.coh.byLowerName)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					payload := make([]byte, 4*vm.PageSize)
					for i := 0; i < cycles; i++ {
						name := fmt.Sprintf("w%d-cycle%d", w, i)
						f, err := r.coh.Create(name, naming.Root)
						if err == nil {
							_, err = f.WriteAt(payload, 0)
						}
						if err == nil {
							err = f.Sync()
						}
						if err == nil {
							err = r.coh.Remove(name, naming.Root)
						}
						if err != nil {
							t.Errorf("worker %d cycle %d: %v", w, i, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if got := r.coh.table.Len(); got != conns {
				t.Errorf("coherency connections = %d after the cycles, want %d", got, conns)
			}
			r.coh.mu.Lock()
			gotFiles, gotKeys := len(r.coh.files), len(r.coh.byLowerName)
			r.coh.mu.Unlock()
			if gotFiles != files || gotKeys != keys {
				t.Errorf("coherency wrappers = %d/%d after the cycles, want %d/%d", gotFiles, gotKeys, files, keys)
			}
		})
	}
}

// TestRetiredFileFailsFaults checks that a stale reference to a retired
// file cannot reach the lower layer any more: the inode number it was
// bound to may already belong to a new file.
func TestRetiredFileFailsFaults(t *testing.T) {
	r := newSFS(t, true)
	f, err := r.coh.Create("gone", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	if err := r.coh.Remove("gone", naming.Root); err != nil {
		t.Fatal(err)
	}
	if _, err := f.(*cohFile).ensureLowerPager(); !errors.Is(err, errRetired) {
		t.Errorf("lower pager of a retired file: err = %v, want errRetired", err)
	}
	if _, err := f.ReadAt(make([]byte, 4), 0); err == nil {
		t.Error("read through a retired file succeeded")
	}
	conns := r.coh.table.Len()
	if _, err := f.(*cohFile).Bind(vm.New(r.vmm.ManagerDomain(), "late"), vm.RightsRead, 0, 0); !errors.Is(err, errRetired) {
		t.Errorf("bind to a retired file: err = %v, want errRetired", err)
	}
	if got := r.coh.table.Len(); got != conns {
		t.Errorf("bind to a retired file left %d connections, want %d", got, conns)
	}
}

// warmFile creates a file of n pages and writes it through to this
// layer, so every block is cached here, then maps it through a fresh VMM
// with adaptive read-ahead: the mapping faults through the coherency
// pager's hint path with nothing below to consult.
func warmFile(t *testing.T, r *sfsRig, name string, n int) *vm.Mapping {
	t.Helper()
	f, err := r.coh.Create(name, naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, n*vm.PageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(r.vmm.ManagerDomain(), "reader").Map(f, vm.RightsRead)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReadAheadWarmRandomFault: a random fault inside a window this layer
// has fully cached is served one page. Serving the whole window instead
// made every random 4 KiB fault copy 256 KiB into the caller's bounded
// cache, evicting 63 pages it had not asked for.
func TestReadAheadWarmRandomFault(t *testing.T) {
	r := newSFS(t, true)
	m := warmFile(t, r, "warm-random", 128)
	lower := r.coh.LowerPageIns.Value()
	buf := make([]byte, vm.PageSize)
	for i, pn := range []int64{37, 5, 90} {
		if _, err := m.ReadAt(buf, pn*vm.PageSize); err != nil {
			t.Fatal(err)
		}
		if got := m.Cache().PageCount(); got != i+1 {
			t.Errorf("after %d random faults the cache holds %d pages, want %d", i+1, got, i+1)
		}
	}
	if got := r.coh.LowerPageIns.Value() - lower; got != 0 {
		t.Errorf("warm faults made %d lower page-ins, want 0", got)
	}
}

// TestReadAheadWarmSequentialRamp: a sequential scan over a fully cached
// file ramps its window, doubling per fault up to the VMM's hint.
func TestReadAheadWarmSequentialRamp(t *testing.T) {
	r := newSFS(t, true)
	const n = 128
	m := warmFile(t, r, "warm-seq", n)
	pager, ok := m.Cache().Pager().(vm.HintedPager)
	if !ok {
		t.Fatal("coherency pager does not narrow to HintedPager")
	}
	// 1, 2, 4, ... 64 pages, then the window stays at the hint's maximum.
	off := vm.Offset(0)
	for _, want := range []int{1, 2, 4, 8, 16, 32, 64} {
		data, err := pager.PageInHint(off, vm.PageSize, 64*vm.PageSize, vm.RightsRead)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(data) / vm.PageSize; got != want {
			t.Fatalf("sequential fault at page %d served %d pages, want %d", off/vm.PageSize, got, want)
		}
		off += vm.Offset(len(data))
	}
	// Breaking the stream starts over at one page.
	data, err := pager.PageInHint(3*vm.PageSize, vm.PageSize, 64*vm.PageSize, vm.RightsRead)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != vm.PageSize {
		t.Errorf("fault off the stream served %d bytes, want one page", len(data))
	}
}

// TestReadAheadClusterStopsAtEOF: an explicit cluster (minSize == maxSize)
// faulting near the end of file is served up to the end of file, not
// past it.
func TestReadAheadClusterStopsAtEOF(t *testing.T) {
	r := newSFS(t, true)
	m := warmFile(t, r, "cluster-eof", 3)
	pager, ok := m.Cache().Pager().(vm.HintedPager)
	if !ok {
		t.Fatal("coherency pager does not narrow to HintedPager")
	}
	for _, warm := range []bool{false, true} {
		data, err := pager.PageInHint(vm.PageSize, 8*vm.PageSize, 8*vm.PageSize, vm.RightsRead)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(data) / vm.PageSize; got != 2 {
			t.Errorf("cluster at page 1 of a 3-page file (warm %v) served %d pages, want 2", warm, got)
		}
	}
}
