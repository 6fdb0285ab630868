package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

// layerFS fronts one layer's public interface: the StackableFS handed to
// unixapi.NewProcess, to a layer's StackOn, or to a DFS server. While the
// tracer is enabled it records a span named "api:<layer>.<Method>" around
// every call into the layer; otherwise it only forwards. Both runs go
// through it, so the traced stack is the untraced stack with recording
// switched on.
//
// Files it returns are wrapped too, one wrapper per underlying file (keyed
// like the layers key theirs, by fsys.CanonicalKey): layers above keep one
// object per lower file and must see the same wrapper on every resolve.
type layerFS struct {
	inner fsys.StackableFS
	names [nMethods]string

	mu     sync.Mutex
	files  map[any]*layerFile
	byName map[string]any // name -> key of the file last seen under it
}

// Method indexes for the precomputed span names.
const (
	mFSName = iota
	mCreate
	mOpen
	mRemove
	mRename
	mSyncFS
	mStackOn
	mResolve
	mBind
	mUnbind
	mList
	mCreateContext
	fBind
	fGetLength
	fSetLength
	fReadAt
	fWriteAt
	fStat
	fSync
	fAppend
	fRetain
	fRelease
	nMethods
)

var methodNames = [nMethods]string{
	"FSName", "Create", "Open", "Remove", "Rename", "SyncFS", "StackOn",
	"Resolve", "Bind", "Unbind", "List", "CreateContext",
	"Bind", "GetLength", "SetLength", "ReadAt", "WriteAt", "Stat", "Sync",
	"Append", "Retain", "Release",
}

// wrapFS fronts inner, naming its spans after layer. A wrapper handed to
// a Process names its Resolve span "naming.resolve": that is the name
// resolution a POSIX open asks of the stack.
func wrapFS(layer string, inner fsys.StackableFS, forProcess bool) *layerFS {
	w := &layerFS{inner: inner, files: make(map[any]*layerFile), byName: make(map[string]any)}
	for i, m := range methodNames {
		w.names[i] = "api:" + layer + "." + m
	}
	if forProcess {
		w.names[mResolve] = "naming.resolve"
	}
	return w
}

// end closes a span begun by begin.
func (w *layerFS) end(m int, start time.Time, bytes int64) {
	if !start.IsZero() {
		stats.Trace.Record(w.names[m], stats.BoundaryDirect, start, time.Since(start), bytes)
	}
}

func (w *layerFS) file(name string, f fsys.File) *layerFile {
	key := fsys.CanonicalKey(f)
	w.mu.Lock()
	defer w.mu.Unlock()
	lf, ok := w.files[key]
	if !ok {
		lf = &layerFile{inner: f, fs: w}
		w.files[key] = lf
	}
	if name != "" {
		w.byName[name] = key
	}
	return lf
}

func (w *layerFS) object(name string, obj naming.Object) naming.Object {
	if f, ok := obj.(fsys.File); ok {
		return w.file(name, f)
	}
	return obj
}

func (w *layerFS) fileOrNil(name string, f fsys.File, err error) (fsys.File, error) {
	if f == nil {
		return nil, err
	}
	return w.file(name, f), err
}

func (w *layerFS) FSName() string {
	defer w.end(mFSName, begin(), 0)
	return w.inner.FSName()
}

func (w *layerFS) Create(name string, cred naming.Credentials) (fsys.File, error) {
	defer w.end(mCreate, begin(), 0)
	f, err := w.inner.Create(name, cred)
	return w.fileOrNil(name, f, err)
}

func (w *layerFS) Open(name string, cred naming.Credentials) (fsys.File, error) {
	defer w.end(mOpen, begin(), 0)
	f, err := w.inner.Open(name, cred)
	return w.fileOrNil(name, f, err)
}

// Remove drops the wrapper of the file last resolved under name, as the
// layers drop theirs, so create/unlink cycles do not accumulate wrappers.
func (w *layerFS) Remove(name string, cred naming.Credentials) error {
	defer w.end(mRemove, begin(), 0)
	err := w.inner.Remove(name, cred)
	if err == nil {
		w.mu.Lock()
		if key, ok := w.byName[name]; ok {
			delete(w.files, key)
			delete(w.byName, name)
		}
		w.mu.Unlock()
	}
	return err
}

func (w *layerFS) Rename(oldname, newname string, cred naming.Credentials) error {
	defer w.end(mRename, begin(), 0)
	return w.inner.Rename(oldname, newname, cred)
}

func (w *layerFS) SyncFS() error {
	defer w.end(mSyncFS, begin(), 0)
	return w.inner.SyncFS()
}

func (w *layerFS) StackOn(under fsys.StackableFS) error {
	defer w.end(mStackOn, begin(), 0)
	return w.inner.StackOn(under)
}

func (w *layerFS) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	defer w.end(mResolve, begin(), 0)
	obj, err := w.inner.Resolve(name, cred)
	return w.object(name, obj), err
}

func (w *layerFS) Bind(name string, obj naming.Object, cred naming.Credentials) error {
	defer w.end(mBind, begin(), 0)
	return w.inner.Bind(name, obj, cred)
}

func (w *layerFS) Unbind(name string, cred naming.Credentials) error {
	defer w.end(mUnbind, begin(), 0)
	return w.inner.Unbind(name, cred)
}

func (w *layerFS) List(cred naming.Credentials) ([]naming.Binding, error) {
	defer w.end(mList, begin(), 0)
	out, err := w.inner.List(cred)
	for i := range out {
		out[i].Object = w.object("", out[i].Object)
	}
	return out, err
}

func (w *layerFS) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	defer w.end(mCreateContext, begin(), 0)
	return w.inner.CreateContext(name, cred)
}

// layerFile fronts one file of a layer. Besides the File interface it
// forwards the optional capabilities the stack narrows files to
// (fsys.Appender and fsys.HandleFile); Bind passes the caller's cache
// manager through, so pager-cache connections form between the real
// objects exactly as without the wrapper.
type layerFile struct {
	inner fsys.File
	fs    *layerFS
}

var (
	_ fsys.File       = (*layerFile)(nil)
	_ fsys.Appender   = (*layerFile)(nil)
	_ fsys.HandleFile = (*layerFile)(nil)
)

func (f *layerFile) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	defer f.fs.end(fBind, begin(), 0)
	return f.inner.Bind(caller, access, offset, length)
}

func (f *layerFile) GetLength() (vm.Offset, error) {
	defer f.fs.end(fGetLength, begin(), 0)
	return f.inner.GetLength()
}

func (f *layerFile) SetLength(length vm.Offset) error {
	defer f.fs.end(fSetLength, begin(), 0)
	return f.inner.SetLength(length)
}

func (f *layerFile) ReadAt(p []byte, off int64) (int, error) {
	defer f.fs.end(fReadAt, begin(), int64(len(p)))
	return f.inner.ReadAt(p, off)
}

func (f *layerFile) WriteAt(p []byte, off int64) (int, error) {
	defer f.fs.end(fWriteAt, begin(), int64(len(p)))
	return f.inner.WriteAt(p, off)
}

func (f *layerFile) Stat() (fsys.Attributes, error) {
	defer f.fs.end(fStat, begin(), 0)
	return f.inner.Stat()
}

func (f *layerFile) Sync() error {
	defer f.fs.end(fSync, begin(), 0)
	return f.inner.Sync()
}

func (f *layerFile) Append(p []byte) (int64, int, error) {
	defer f.fs.end(fAppend, begin(), int64(len(p)))
	return fsys.Append(f.inner, p)
}

func (f *layerFile) Retain() {
	defer f.fs.end(fRetain, begin(), 0)
	fsys.Retain(f.inner)
}

func (f *layerFile) Release() error {
	defer f.fs.end(fRelease, begin(), 0)
	return fsys.Release(f.inner)
}

// layerOf maps a span name to the layer that spends its self time. The
// benchmark's "api:<layer>.*" spans sit just outside the layer they front,
// so their self time is that layer's work not covered by a deeper span;
// "api:sfs" and "api:export" front an SFS, whose top is the coherency
// layer.
func layerOf(name string) string {
	name = strings.TrimPrefix(name, "api:")
	if i := strings.IndexAny(name, ".:"); i >= 0 {
		name = name[:i]
	}
	switch name {
	case "coh", "sfs", "export":
		return "coh"
	case "vmm":
		return "vm"
	case "blockdev", "dev":
		return "dev"
	case "unixapi", "naming", "spring", "disk", "dfs", "net", "cryptfs", "compfs":
		return name
	}
	return "other"
}

// spanLayers lists every layer layerOf can return, so a traced run prints
// the same metrics on every workload.
var spanLayers = []string{"unixapi", "naming", "spring", "coh", "vm", "disk", "dev", "dfs", "net", "cryptfs", "compfs", "other"}

// spanAcc accumulates drained spans: self time per layer (a span's
// duration minus the part its enclosed spans cover, nesting rebuilt from
// interval containment as stats.RenderTrace does) and count and total per
// span name.
type spanAcc struct {
	self    map[string]time.Duration
	count   map[string]int64
	total   map[string]time.Duration
	dropped uint64
}

func newSpanAcc() *spanAcc {
	return &spanAcc{
		self:  make(map[string]time.Duration),
		count: make(map[string]int64),
		total: make(map[string]time.Duration),
	}
}

// drain folds the spans the tracer holds into the accumulator and empties
// the tracer. Called after every traced op, it keeps the ring from
// wrapping; spans lost anyway are counted from Tracer.Dropped.
func (a *spanAcc) drain() {
	a.dropped += stats.Trace.Dropped()
	spans := stats.Trace.Spans()
	stats.Trace.Reset()
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].Duration > spans[j].Duration // parent before child
	})
	child := make([]time.Duration, len(spans))
	var stack []int
	for i, s := range spans {
		for len(stack) > 0 {
			p := spans[stack[len(stack)-1]]
			if !s.Start.Before(p.Start) && !s.End().After(p.End()) {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			child[stack[len(stack)-1]] += s.Duration
		}
		stack = append(stack, i)
	}
	for i, s := range spans {
		self := s.Duration - child[i]
		if self < 0 {
			self = 0
		}
		a.self[layerOf(s.Name)] += self
		a.count[s.Name]++
		a.total[s.Name] += s.Duration
	}
}

// meanUS is the mean duration, in µs, of the spans whose name satisfies
// match.
func (a *spanAcc) meanUS(match func(string) bool) float64 {
	var n int64
	var t time.Duration
	for name, c := range a.count {
		if match(name) {
			n += c
			t += a.total[name]
		}
	}
	return ratio(float64(t)/1e3, float64(n))
}

// countOf sums the span counts whose name satisfies match.
func (a *spanAcc) countOf(match func(string) bool) int64 {
	var n int64
	for name, c := range a.count {
		if match(name) {
			n += c
		}
	}
	return n
}
