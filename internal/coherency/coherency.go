// Package coherency implements the generic coherency layer of the paper
// (Section 6.2): a stackable file system layer that implements a per-block
// multiple-readers/single-writer coherency protocol and caches file data
// and attributes.
//
// The layer keeps track of the state of each file block (read-only vs
// read-write) and of each cache object that holds the block at any point
// in time; coherency actions are triggered depending on the state and the
// current request. It also caches file attributes using the operations of
// the fs_cache and fs_pager interfaces.
//
// Two uses from the paper:
//
//   - Spring SFS is the coherency layer stacked on the (non-coherent) disk
//     layer, with all files exported via the coherency layer (Figure 10).
//     The two layers may share a domain or be split across domains.
//
//   - Coherent stacks from non-coherent layers (Section 6.3): starting from
//     any non-coherent base, stack a coherency layer on it and export files
//     through the coherency layer; every exported file is then coherent
//     with its underlying file.
//
// Deadlock discipline: a block's protocol state is guarded by a busy flag.
// The busy flag is held only across local work and *upward* call-outs
// (coherency actions against the caches above, which are bounded by
// induction up the stack); every *downward* call (fetching from or writing
// to the layer below, which can block inside the lower layer's own
// protocol) happens with the busy flag released, and installs revalidate a
// block epoch that revocations bump — the same protocol the VMM uses for
// in-flight faults.
//
// # Vocabulary
//
// The cache/pager vocabulary from the layer's point of view — it plays
// both halves at once:
//
//   - Downward it is a cache manager: it binds to each underlying file and
//     keeps the fetched blocks in its own cache, presenting an fs_cache
//     object so the lower layer's revocations reach it.
//   - Upward it is a pager: whoever maps or binds one of its files (a VMM,
//     another stacked layer, a DFS server on another machine) becomes a
//     holder the protocol tracks.
//   - holder: one cache object's claim on one block, at read-only or
//     read-write strength. The per-block rule is many readers or exactly
//     one writer.
//   - coherency action (revocation): the call-outs that restore the rule —
//     flush_back (retrieve dirty data), deny_writes (downgrade to
//     read-only), delete_range (discard) — issued against holders when a
//     conflicting request arrives.
//   - write-through: dirty blocks are synced to the lower layer when
//     coherency demands it or on Sync, not on every write.
package coherency

import (
	"fmt"
	"sync"
	"sync/atomic"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

// BlockSize is the coherency protocol's block granularity; one VM page.
const BlockSize = vm.PageSize

// ErrHolderUnreachable is returned by a page-in whose revocation found a
// write-holding cache that can no longer be reached (a dead remote
// client): the holder has been dropped from the block, so a retry
// proceeds, but its unflushed modifications may be lost and the caller
// must not assume it read the latest data silently.
var ErrHolderUnreachable = fmt.Errorf("coherency: write-holding cache unreachable, holder dropped (%w)", fsys.ErrUnavailable)

// Instrumented operations (see docs/OBSERVABILITY.md for the two tiers).
// The hot ops sit on cached paths and record only during a tracing window;
// the always-on ops mark traffic to the lower layer and coherency
// call-outs, whose cost dwarfs the clock reads.
var (
	opOpen    = stats.NewHotOp("coh.open", stats.BoundaryDirect)
	opResolve = stats.NewHotOp("coh.resolve", stats.BoundaryDirect)
	opCreate  = stats.NewHotOp("coh.create", stats.BoundaryDirect)
	opRead    = stats.NewHotOp("coh.read", stats.BoundaryDirect)
	opWrite   = stats.NewHotOp("coh.write", stats.BoundaryDirect)
	opStat    = stats.NewHotOp("coh.stat", stats.BoundaryDirect)

	opPageIn       = stats.NewOp("coh.page_in", stats.BoundaryDirect)
	opWriteThrough = stats.NewOp("coh.write_through", stats.BoundaryDirect)
	opRevoke       = stats.NewOp("coh.revoke", stats.BoundaryDirect)
)

// CohFS is an instance of the coherency layer.
type CohFS struct {
	name   string
	domain *spring.Domain
	vmm    *vm.VMM
	table  *fsys.ConnectionTable

	mu          sync.Mutex
	under       fsys.StackableFS
	files       map[uint64]*cohFile
	byLowerName map[any]*cohFile
	dirs        map[naming.Context]*cohDir
	nextBacking atomic.Uint64
	closed      bool

	// Counters used by tests and the bench harness to verify, e.g., that
	// cached operations make no calls to the lower layer (Table 2).
	LowerPageIns  stats.Counter
	LowerPageOuts stats.Counter
	Revocations   stats.Counter
	// LostHolders counts revocations that found the holder unreachable
	// and dropped it (graceful degradation instead of wedging the block).
	LostHolders stats.Counter
}

var (
	_ fsys.StackableFS      = (*CohFS)(nil)
	_ naming.ProxyWrappable = (*CohFS)(nil)
)

// New creates a coherency layer instance served by domain, using the
// node's vmm for its read/write mappings.
func New(domain *spring.Domain, vmm *vm.VMM, name string) *CohFS {
	return &CohFS{
		name:        name,
		domain:      domain,
		vmm:         vmm,
		table:       fsys.NewConnectionTable(domain),
		files:       make(map[uint64]*cohFile),
		byLowerName: make(map[any]*cohFile),
		dirs:        make(map[naming.Context]*cohDir),
	}
}

// NewCreator returns a stackable_fs_creator for coherency layers. Each
// created instance is served by domain and uses vmm.
func NewCreator(domain *spring.Domain, vmm *vm.VMM) fsys.Creator {
	var n atomic.Uint64
	return fsys.CreatorFunc(func(config map[string]string) (fsys.StackableFS, error) {
		name := config["name"]
		if name == "" {
			name = fmt.Sprintf("coherency%d", n.Add(1))
		}
		return New(domain, vmm, name), nil
	})
}

// Domain returns the serving domain.
func (c *CohFS) Domain() *spring.Domain { return c.domain }

// FSName implements fsys.FS.
func (c *CohFS) FSName() string { return c.name }

// StackOn implements fsys.StackableFS. The coherency layer stacks on
// exactly one underlying file system.
func (c *CohFS) StackOn(under fsys.StackableFS) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.under != nil {
		return fsys.ErrAlreadyStacked
	}
	c.under = under
	return nil
}

// Under returns the underlying file system.
func (c *CohFS) Under() fsys.StackableFS {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.under
}

// WrapForChannel implements naming.ProxyWrappable.
func (c *CohFS) WrapForChannel(ch *spring.Channel) naming.Object {
	return fsys.WrapStackable(ch, c)
}

// underlying returns the lower file system or an error if not stacked.
func (c *CohFS) underlying() (fsys.StackableFS, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.under == nil {
		return nil, fsys.ErrNotStacked
	}
	if c.closed {
		return nil, fsys.ErrClosed
	}
	return c.under, nil
}

// fileFor returns the canonical coherent wrapper for a lower file. One
// wrapper per lower file keeps the bind contract (equivalent memory
// objects share one pager-cache connection per manager).
func (c *CohFS) fileFor(lower fsys.File) *cohFile {
	key := fsys.CanonicalKey(lower)
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.byLowerName[key]; ok {
		return f
	}
	f := &cohFile{
		fs:      c,
		lower:   lower,
		backing: c.nextBacking.Add(1),
		blocks:  make(map[int64]*blockState),
	}
	f.bcond = sync.NewCond(&f.bmu)
	f.io = fsys.NewMappedIO(c.vmm, f)
	c.files[f.backing] = f
	c.byLowerName[key] = f
	return f
}

// forgetFile drops f from the layer's maps if it is still the canonical
// wrapper of its lower file.
func (c *CohFS) forgetFile(f *cohFile) {
	key := fsys.CanonicalKey(f.lower)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.files[f.backing] == f {
		delete(c.files, f.backing)
	}
	if c.byLowerName[key] == f {
		delete(c.byLowerName, key)
	}
}

// dirFor returns the canonical wrapper context for a lower directory.
func (c *CohFS) dirFor(lower naming.Context) *cohDir {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.dirs[lower]; ok {
		return d
	}
	d := &cohDir{fs: c, lower: lower}
	c.dirs[lower] = d
	return d
}

// wrap converts a lower-layer object into its coherent counterpart.
func (c *CohFS) wrap(obj naming.Object) naming.Object {
	switch o := obj.(type) {
	case fsys.File:
		return c.fileFor(o)
	case naming.Context:
		return c.dirFor(o)
	default:
		return obj
	}
}

// Create implements fsys.FS.
func (c *CohFS) Create(name string, cred naming.Credentials) (fsys.File, error) {
	t := opCreate.Start()
	defer opCreate.End(t, 0)
	under, err := c.underlying()
	if err != nil {
		return nil, err
	}
	lower, err := under.Create(name, cred)
	if err != nil {
		return nil, err
	}
	return c.fileFor(lower), nil
}

// Open implements fsys.FS.
func (c *CohFS) Open(name string, cred naming.Credentials) (fsys.File, error) {
	t := opOpen.Start()
	defer opOpen.End(t, 0)
	obj, err := c.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	return fsys.AsFile(obj)
}

// Remove implements fsys.FS.
func (c *CohFS) Remove(name string, cred naming.Credentials) error {
	under, err := c.underlying()
	if err != nil {
		return err
	}
	// Invalidate the wrapper before removing below.
	if obj, rerr := under.Resolve(name, cred); rerr == nil {
		if lf, ok := obj.(fsys.File); ok {
			key := fsys.CanonicalKey(lf)
			c.mu.Lock()
			if f, ok := c.byLowerName[key]; ok {
				delete(c.byLowerName, key)
				delete(c.files, f.backing)
			}
			c.mu.Unlock()
		}
	}
	return under.Remove(name, cred)
}

// Rename implements fsys.FS: the lower layer does the atomic move; this
// layer drops the wrapper of an overwritten destination (its lower file is
// unlinked by the rename). The moving file's wrapper is keyed by the lower
// file's identity, not its name, so it needs no attention.
func (c *CohFS) Rename(oldname, newname string, cred naming.Credentials) error {
	under, err := c.underlying()
	if err != nil {
		return err
	}
	var dropKey any
	if obj, rerr := under.Resolve(newname, cred); rerr == nil {
		if lf, ok := obj.(fsys.File); ok {
			dropKey = fsys.CanonicalKey(lf)
		}
	}
	if dropKey != nil {
		// Renaming a name onto itself must not drop the live wrapper.
		if obj, rerr := under.Resolve(oldname, cred); rerr == nil {
			if lf, ok := obj.(fsys.File); ok && fsys.CanonicalKey(lf) == dropKey {
				dropKey = nil
			}
		}
	}
	if err := under.Rename(oldname, newname, cred); err != nil {
		return err
	}
	if dropKey != nil {
		c.mu.Lock()
		if f, ok := c.byLowerName[dropKey]; ok {
			delete(c.byLowerName, dropKey)
			delete(c.files, f.backing)
		}
		c.mu.Unlock()
	}
	return nil
}

// SyncFS implements fsys.FS: flush all dirty blocks and attributes to the
// lower layer, then sync it.
func (c *CohFS) SyncFS() error {
	under, err := c.underlying()
	if err != nil {
		return err
	}
	c.mu.Lock()
	files := make([]*cohFile, 0, len(c.files))
	for _, f := range c.files {
		files = append(files, f)
	}
	c.mu.Unlock()
	for _, f := range files {
		if err := f.flushAll(); err != nil {
			return err
		}
	}
	return under.SyncFS()
}

// InvalidateAttrCaches drops every file's cached attributes so the next
// stat refetches from the lower layer. The benchmark harness uses it to
// measure the "not cached by the coherency layer" rows of Table 2.
func (c *CohFS) InvalidateAttrCaches() {
	c.mu.Lock()
	files := make([]*cohFile, 0, len(c.files))
	for _, f := range c.files {
		files = append(files, f)
	}
	c.mu.Unlock()
	for _, f := range files {
		f.attrs.Invalidate()
	}
}

// Resolve implements naming.Context, wrapping resolved lower objects in
// coherent counterparts.
func (c *CohFS) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	t := opResolve.Start()
	defer opResolve.End(t, 0)
	under, err := c.underlying()
	if err != nil {
		return nil, err
	}
	obj, err := under.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	return c.wrap(obj), nil
}

// Bind implements naming.Context, forwarding to the lower layer.
func (c *CohFS) Bind(name string, obj naming.Object, cred naming.Credentials) error {
	under, err := c.underlying()
	if err != nil {
		return err
	}
	if f, ok := obj.(*cohFile); ok && f.fs == c {
		obj = f.lower
	}
	return under.Bind(name, obj, cred)
}

// Unbind implements naming.Context.
func (c *CohFS) Unbind(name string, cred naming.Credentials) error {
	under, err := c.underlying()
	if err != nil {
		return err
	}
	return under.Unbind(name, cred)
}

// List implements naming.Context.
func (c *CohFS) List(cred naming.Credentials) ([]naming.Binding, error) {
	under, err := c.underlying()
	if err != nil {
		return nil, err
	}
	out, err := under.List(cred)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].Object = c.wrap(out[i].Object)
	}
	return out, nil
}

// CreateContext implements naming.Context.
func (c *CohFS) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	under, err := c.underlying()
	if err != nil {
		return nil, err
	}
	lower, err := under.CreateContext(name, cred)
	if err != nil {
		return nil, err
	}
	return c.dirFor(lower), nil
}

// cohDir wraps a lower directory so resolutions through it also yield
// coherent files.
type cohDir struct {
	fs    *CohFS
	lower naming.Context
}

var (
	_ naming.Context        = (*cohDir)(nil)
	_ naming.ProxyWrappable = (*cohDir)(nil)
)

// WrapForChannel implements naming.ProxyWrappable.
func (d *cohDir) WrapForChannel(ch *spring.Channel) naming.Object {
	return naming.NewContextProxy(ch, d)
}

// Resolve implements naming.Context.
func (d *cohDir) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	obj, err := d.lower.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	return d.fs.wrap(obj), nil
}

// Bind implements naming.Context.
func (d *cohDir) Bind(name string, obj naming.Object, cred naming.Credentials) error {
	if f, ok := obj.(*cohFile); ok && f.fs == d.fs {
		obj = f.lower
	}
	return d.lower.Bind(name, obj, cred)
}

// Unbind implements naming.Context.
func (d *cohDir) Unbind(name string, cred naming.Credentials) error {
	return d.lower.Unbind(name, cred)
}

// List implements naming.Context.
func (d *cohDir) List(cred naming.Credentials) ([]naming.Binding, error) {
	out, err := d.lower.List(cred)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].Object = d.fs.wrap(out[i].Object)
	}
	return out, nil
}

// CreateContext implements naming.Context.
func (d *cohDir) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	lower, err := d.lower.CreateContext(name, cred)
	if err != nil {
		return nil, err
	}
	return d.fs.dirFor(lower), nil
}

// DropDataCaches flushes all dirty state to the lower layer and discards
// every cached block and attribute, leaving the layer fully cold
// (benchmark/test hook).
func (c *CohFS) DropDataCaches() error {
	c.mu.Lock()
	files := make([]*cohFile, 0, len(c.files))
	for _, f := range c.files {
		files = append(files, f)
	}
	c.mu.Unlock()
	for _, f := range files {
		if err := f.dropAll(); err != nil {
			return err
		}
		f.attrs.Invalidate()
	}
	return nil
}
