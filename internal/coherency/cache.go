package coherency

import (
	"springfs/internal/fsys"
	"springfs/internal/vm"
)

// lowerCacheObject is the fs_cache object the coherency layer exports to
// the layer *below* it. Through this object the lower layer performs
// coherency actions against the data this layer (and transitively, the
// caches above it) holds. This is what makes coherent stacks composable
// (Section 6.3): if the lower layer is itself a coherency layer, its
// revocations propagate up through here to every cache above.
//
// Every revocation bumps the affected blocks' epochs so that fetches in
// flight at the lower layer discard their grants and retry (see the
// package comment).
type lowerCacheObject struct {
	f *cohFile
}

var _ fsys.FsCacheObject = (*lowerCacheObject)(nil)

// blockNumbers lists the blocks this layer has state for in the range.
func (c *lowerCacheObject) blockNumbers(offset, size vm.Offset) []int64 {
	first, last := vm.PageRange(offset, size)
	c.f.bmu.Lock()
	defer c.f.bmu.Unlock()
	var out []int64
	for pn := range c.f.blocks {
		if pn >= first && pn <= last {
			out = append(out, pn)
		}
	}
	return out
}

// FlushBack implements vm.CacheObject: remove the range from this layer
// (and everything above it), returning modified blocks.
func (c *lowerCacheObject) FlushBack(offset, size vm.Offset) []vm.Data {
	f := c.f
	var out []vm.Data
	for _, pn := range c.blockNumbers(offset, size) {
		b := f.acquire(pn)
		b.epoch++
		f.revokeForWrite(b, pn, nil) // reconcile writers above
		for h := range b.holders {
			h.Cache.DeleteRange(pn*BlockSize, BlockSize)
			delete(b.holders, h)
		}
		if b.valid && b.dirty {
			data := make([]byte, BlockSize)
			copy(data, b.data)
			out = append(out, vm.Data{Offset: pn * BlockSize, Bytes: data})
		}
		b.valid = false
		b.dirty = false
		b.data = nil
		b.version++
		f.release(b)
	}
	return out
}

// DenyWrites implements vm.CacheObject: downgrade writers above, return
// modified blocks, retain data read-only.
func (c *lowerCacheObject) DenyWrites(offset, size vm.Offset) []vm.Data {
	f := c.f
	var out []vm.Data
	for _, pn := range c.blockNumbers(offset, size) {
		b := f.acquire(pn)
		b.epoch++
		f.revokeForRead(b, pn, nil)
		if b.valid && b.dirty {
			data := make([]byte, BlockSize)
			copy(data, b.data)
			out = append(out, vm.Data{Offset: pn * BlockSize, Bytes: data})
			b.dirty = false
		}
		f.release(b)
	}
	return out
}

// WriteBack implements vm.CacheObject: return modified blocks, keep
// everything cached in the same mode.
func (c *lowerCacheObject) WriteBack(offset, size vm.Offset) []vm.Data {
	f := c.f
	var out []vm.Data
	for _, pn := range c.blockNumbers(offset, size) {
		b := f.acquire(pn)
		f.revokeForRead(b, pn, nil) // pull modified data from writers above
		if b.valid && b.dirty {
			data := make([]byte, BlockSize)
			copy(data, b.data)
			out = append(out, vm.Data{Offset: pn * BlockSize, Bytes: data})
			b.dirty = false
		}
		f.release(b)
	}
	return out
}

// DeleteRange implements vm.CacheObject: drop the range everywhere above;
// nothing is returned.
func (c *lowerCacheObject) DeleteRange(offset, size vm.Offset) {
	f := c.f
	for _, pn := range c.blockNumbers(offset, size) {
		b := f.acquire(pn)
		b.epoch++
		for h := range b.holders {
			h.Cache.DeleteRange(pn*BlockSize, BlockSize)
			delete(b.holders, h)
			f.fs.Revocations.Inc()
		}
		b.valid = false
		b.dirty = false
		b.data = nil
		b.version++
		f.release(b)
	}
}

// ZeroFill implements vm.CacheObject: the lower layer declares the range
// zero-filled.
func (c *lowerCacheObject) ZeroFill(offset, size vm.Offset) {
	f := c.f
	first, last := vm.PageRange(offset, size)
	for pn := first; pn <= last; pn++ {
		b := f.acquire(pn)
		b.epoch++
		for h := range b.holders {
			h.Cache.ZeroFill(pn*BlockSize, BlockSize)
			delete(b.holders, h)
		}
		b.data = make([]byte, BlockSize)
		b.valid = true
		b.dirty = false
		b.version++
		f.release(b)
	}
}

// Populate implements vm.CacheObject: the lower layer pushes fresh data.
func (c *lowerCacheObject) Populate(offset, size vm.Offset, access vm.Rights, data []byte) {
	f := c.f
	first, last := vm.PageRange(offset, size)
	for pn := first; pn <= last; pn++ {
		b := f.acquire(pn)
		b.epoch++
		for h := range b.holders {
			h.Cache.DeleteRange(pn*BlockSize, BlockSize)
			delete(b.holders, h)
		}
		if b.data == nil {
			b.data = make([]byte, BlockSize)
		}
		copy(b.data, data[(pn-first)*BlockSize:])
		b.valid = true
		b.dirty = false
		b.version++
		f.release(b)
	}
}

// DestroyCache implements vm.CacheObject: the layer below freed the
// file, so it retires here too (cohFile.retire).
func (c *lowerCacheObject) DestroyCache() { c.f.retire() }

// FlushAttributes implements fsys.FsCacheObject.
func (c *lowerCacheObject) FlushAttributes() (fsys.Attributes, bool) {
	return c.f.attrs.Flush()
}

// PopulateAttributes implements fsys.FsCacheObject.
func (c *lowerCacheObject) PopulateAttributes(attrs fsys.Attributes) {
	c.f.attrs.Set(attrs)
}

// InvalidateAttributes implements fsys.FsCacheObject.
func (c *lowerCacheObject) InvalidateAttributes() {
	c.f.attrs.Invalidate()
}
