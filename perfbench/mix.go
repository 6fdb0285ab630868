package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sync"
	"time"

	"springfs/internal/unixapi"
)

const (
	pageSize  = 4096
	fileSize  = 256 << 10
	filePages = fileSize / pageSize
	// syncPages is the size of the sync unit's fresh file: 64 KiB.
	syncPages = 16
)

// content generates every byte the benchmark writes and checks every byte
// it reads. A page is a 16-byte header naming its key and version, then a
// slice of a seeded text corpus at an offset the key and version pick:
// words from a 64-word vocabulary, so the data compresses the way text
// does and COMPFS has real work to do, while filling and checking a page
// is one copy or compare.
type content struct {
	seed   uint64
	corpus []byte
}

const corpusSize = 256 << 10

func newContent(seed int64) *content {
	c := &content{seed: mix64(uint64(seed)), corpus: make([]byte, 0, corpusSize+128)}
	var vocab [64][]byte
	x := c.seed
	for i := range vocab {
		x = mix64(x + uint64(i))
		// Word lengths do not depend on the seed, so every seed's text
		// compresses alike and the seed changes the bytes, not the cost.
		n := 2 + i%8
		w := make([]byte, n+1)
		for j := 0; j < n; j++ {
			w[j] = 'a' + byte((x>>(8+5*j))%26)
		}
		w[n] = ' '
		vocab[i] = w
	}
	for len(c.corpus) < corpusSize {
		x = mix64(x)
		for k, r := 0, x; k < 10; k, r = k+1, r>>6 {
			c.corpus = append(c.corpus, vocab[r&63]...)
		}
	}
	c.corpus = c.corpus[:corpusSize]
	return c
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fill writes the content of page (ns, file, page) at version v into buf.
// The dataset's files are namespace 0.
func (c *content) fill(buf []byte, ns, file, page int, v uint32) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(ns))
	binary.LittleEndian.PutUint32(buf[4:], uint32(file))
	binary.LittleEndian.PutUint32(buf[8:], uint32(page))
	binary.LittleEndian.PutUint32(buf[12:], v)
	h := mix64(c.seed ^ uint64(ns)<<48 ^ uint64(file)<<32 ^ uint64(page)<<16 ^ uint64(v))
	off := int(h % uint64(len(c.corpus)-len(buf)))
	copy(buf[16:], c.corpus[off:])
}

// dataset is the set of files a workload's clients share: nfiles files on
// one file system. Every page has a version, bumped by each pwrite; a read
// checks the page against the version current when it started. A per-page
// lock orders a pwrite against reads of the same page, so the expected
// content is exact.
type dataset struct {
	c        *content
	nfiles   int
	versions []uint32
	locks    []sync.RWMutex
}

func newDataset(c *content, nfiles int) *dataset {
	n := nfiles * filePages
	return &dataset{c: c, nfiles: nfiles, versions: make([]uint32, n), locks: make([]sync.RWMutex, n)}
}

func (d *dataset) page(file, page int) int { return file*filePages + page }

// fileNames are precomputed so an op allocates no name.
var fileNames = func() []string {
	out := make([]string, coldFiles)
	for i := range out {
		out[i] = fmt.Sprintf("f%03d", i)
	}
	return out
}()

func fileName(file int) string { return fileNames[file] }

// hist is a fixed-memory latency histogram: 128 linear sub-buckets per
// power of two, so a quantile is exact to under 1% without keeping
// samples.
type hist struct {
	n      uint64
	counts [58 * 128]uint64
}

func histIndex(ns uint64) int {
	if ns < 128 {
		return int(ns)
	}
	s := bits.Len64(ns) - 8
	return (s+1)*128 + int(ns>>s) - 128
}

func (h *hist) add(d time.Duration) {
	h.counts[histIndex(uint64(d))]++
	h.n++
}

// mergeScaled adds o's samples to h with every value multiplied by k.
func (h *hist) mergeScaled(o *hist, k float64) {
	h.n += o.n
	for i, c := range o.counts {
		if c != 0 {
			h.counts[histIndex(uint64(bucketMid(i)*k+0.5))] += c
		}
	}
}

// bucketMid is the midpoint, in ns, of bucket i.
func bucketMid(i int) float64 {
	if i < 128 {
		return float64(i)
	}
	s := i/128 - 1
	lo := uint64(i%128+128) << s
	return float64(lo) + float64(uint64(1)<<s)/2
}

// quantile returns the q-quantile in µs, at the midpoint of its bucket.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return bucketMid(i) / 1e3
		}
	}
	return 0
}

// Op classes the latency metrics are reported for.
const (
	clsAll   = iota // one mix op (a whole open+close or sync unit)
	clsRead         // 4 KiB Pread
	clsWrite        // 4 KiB Pwrite
	clsMeta         // Open, Close, Fstat
	clsSync         // the create + write + fsync + close + unlink unit
	nClasses
)

// window is what was measured over a stretch of a run.
type window struct {
	lat       [nClasses]hist
	busy      time.Duration // summed latency of the ops
	attempted int64
}

// mergeScaled adds o to w with every time multiplied by k.
func (w *window) mergeScaled(o *window, k float64) {
	for i := range w.lat {
		w.lat[i].mergeScaled(&o.lat[i], k)
	}
	w.busy += time.Duration(float64(o.busy) * k)
	w.attempted += o.attempted
}

// client is one closed-loop caller: it issues an op, waits for it, and
// issues the next. Each client owns its Process and descriptors.
type client struct {
	id   int
	d    *dataset
	proc *unixapi.Process
	fds  []int
	rng  *rand.Rand
	buf  []byte
	want []byte

	win        window        // the measured ops
	rec        *window       // &win while measuring, nil while warming up
	attempted  int64         // every op, warm-up included
	opLat      time.Duration // POSIX time of the op in progress
	depth      int           // nesting of call, so an op's time is counted once
	failed     int64
	readBytes  int64
	writeBytes int64
	firstErr   error

	// sync-unit state (cold-durable): the file of the last completed unit
	// is fsynced and not yet unlinked; the next unit unlinks it.
	units    int
	lastSync string
}

func newClient(id int, d *dataset, proc *unixapi.Process, seed int64) (*client, error) {
	c := &client{
		id: id, d: d, proc: proc,
		fds:  make([]int, d.nfiles),
		rng:  rand.New(rand.NewPCG(uint64(seed), uint64(id)+1)),
		buf:  make([]byte, pageSize),
		want: make([]byte, pageSize),
	}
	c.rec = &c.win
	for f := range c.fds {
		fd, err := proc.Open(fileName(f), unixapi.O_RDWR)
		if err != nil {
			return nil, fmt.Errorf("client %d open %s: %w", id, fileName(f), err)
		}
		c.fds[f] = fd
	}
	return c, nil
}

// fail counts a failed or wrong-content op, keeping the first cause.
func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// noClass marks a call whose latency belongs to no reported class.
const noClass = -1

// call times one POSIX call into class cls and, while tracing, records a
// span named name around it (none for an empty name). An op's latency is
// the time of its outermost calls: the benchmark's own checking between
// calls is not charged to the system.
func (c *client) call(cls int, name string, fn func() error) error {
	t := begin()
	c.depth++
	start := time.Now()
	err := fn()
	took := time.Since(start)
	c.depth--
	if c.depth == 0 {
		c.opLat += took
	}
	if cls != noClass && c.rec != nil {
		c.rec.lat[cls].add(took)
	}
	if name != "" {
		span(name, t, 0)
	}
	return err
}

func (c *client) pick() (file, page int) {
	return c.rng.IntN(c.d.nfiles), c.rng.IntN(filePages)
}

// pread reads one random page and checks it.
func (c *client) pread() {
	file, pg := c.pick()
	i := c.d.page(file, pg)
	c.d.locks[i].RLock()
	v := c.d.versions[i]
	var n int
	err := c.call(clsRead, "unixapi.Pread", func() (err error) {
		n, err = c.proc.Pread(c.fds[file], c.buf, int64(pg)*pageSize)
		return err
	})
	c.d.locks[i].RUnlock()
	if err == nil && n != pageSize {
		err = fmt.Errorf("short read %d", n)
	}
	if err != nil {
		c.fail(fmt.Errorf("pread %s page %d: %w", fileName(file), pg, err))
		return
	}
	c.readBytes += int64(n)
	c.d.c.fill(c.want, 0, file, pg, v)
	if !bytes.Equal(c.buf, c.want) {
		c.fail(fmt.Errorf("pread %s page %d: content differs from version %d", fileName(file), pg, v))
	}
}

// pwrite writes the next version of one random page.
func (c *client) pwrite() {
	file, pg := c.pick()
	i := c.d.page(file, pg)
	c.d.locks[i].Lock()
	v := c.d.versions[i] + 1
	c.d.c.fill(c.buf, 0, file, pg, v)
	var n int
	err := c.call(clsWrite, "unixapi.Pwrite", func() (err error) {
		n, err = c.proc.Pwrite(c.fds[file], c.buf, int64(pg)*pageSize)
		return err
	})
	if err == nil && n == pageSize {
		c.d.versions[i] = v
	}
	c.d.locks[i].Unlock()
	if err == nil && n != pageSize {
		err = fmt.Errorf("short write %d", n)
	}
	if err != nil {
		c.fail(fmt.Errorf("pwrite %s page %d: %w", fileName(file), pg, err))
		return
	}
	c.writeBytes += int64(n)
}

// fstat checks a random file's size.
func (c *client) fstat() {
	file, _ := c.pick()
	var st unixapi.StatInfo
	err := c.call(clsMeta, "unixapi.Fstat", func() (err error) {
		st, err = c.proc.Fstat(c.fds[file])
		return err
	})
	if err == nil && st.Size != fileSize {
		err = fmt.Errorf("size %d, want %d", st.Size, fileSize)
	}
	if err != nil {
		c.fail(fmt.Errorf("fstat %s: %w", fileName(file), err))
	}
}

// openClose opens a random file by name and closes it again.
func (c *client) openClose() {
	file, _ := c.pick()
	var fd int
	err := c.call(clsMeta, "unixapi.Open", func() (err error) {
		fd, err = c.proc.Open(fileName(file), unixapi.O_RDWR)
		return err
	})
	if err == nil {
		err = c.call(clsMeta, "unixapi.Close", func() error { return c.proc.Close(fd) })
	}
	if err != nil {
		c.fail(fmt.Errorf("open/close %s: %w", fileName(file), err))
	}
}

// syncNS is the content namespace of sync-unit files, apart from the
// dataset's file systems.
const syncNS = 1 << 10

func syncName(client, unit int) string { return fmt.Sprintf("s%d-%06d", client, unit) }

// syncUnit is the durable path: create a fresh 64 KiB file with 4 KiB
// pwrites, fsync it, check its size, close it, and unlink the previous
// unit's file. The last unit's file stays, fsynced, for the durability
// check. Only the pwrites count in a class of their own; the other calls
// count in the unit. The create is a journal transaction, about 40 times
// as long as a plain open, and the Fstat after the Fsync varied three
// times as much from segment to segment as a read, so meta_p50_us is
// taken from plain ops on the data files instead.
func (c *client) syncUnit() {
	c.units++
	name := syncName(c.id, c.units)
	p := c.proc
	err := c.call(clsSync, "", func() error {
		var fd int
		err := c.call(noClass, "unixapi.Open", func() (err error) {
			fd, err = p.Open(name, unixapi.O_RDWR|unixapi.O_CREAT|unixapi.O_EXCL)
			return err
		})
		if err != nil {
			return err
		}
		for pg := 0; pg < syncPages; pg++ {
			c.d.c.fill(c.buf, syncNS+c.id, c.units, pg, 0)
			var n int
			err := c.call(clsWrite, "unixapi.Pwrite", func() (err error) {
				n, err = p.Pwrite(fd, c.buf, int64(pg)*pageSize)
				return err
			})
			if err == nil && n != pageSize {
				err = fmt.Errorf("short write %d", n)
			}
			if err != nil {
				return err
			}
			c.writeBytes += int64(n)
		}
		if err := c.call(noClass, "unixapi.Fsync", func() error { return p.Fsync(fd) }); err != nil {
			return err
		}
		var st unixapi.StatInfo
		err = c.call(noClass, "unixapi.Fstat", func() (err error) {
			st, err = p.Fstat(fd)
			return err
		})
		if err == nil && st.Size != syncPages*pageSize {
			err = fmt.Errorf("size %d after fsync, want %d", st.Size, syncPages*pageSize)
		}
		if err != nil {
			return err
		}
		if err := c.call(noClass, "unixapi.Close", func() error { return p.Close(fd) }); err != nil {
			return err
		}
		if c.lastSync != "" {
			if err := c.call(noClass, "unixapi.Unlink", func() error { return p.Unlink(c.lastSync) }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		c.fail(fmt.Errorf("sync unit %s: %w", name, err))
		return
	}
	c.lastSync = name
}

// mix is a workload's op mix: cumulative percentages and the ops they
// select.
type mix []struct {
	pct int
	op  func(*client)
}

// step issues one op chosen from m.
func (c *client) step(m mix) {
	r := c.rng.IntN(100)
	for _, e := range m {
		if r < e.pct {
			c.opLat = 0
			e.op(c)
			c.attempted++
			if w := c.rec; w != nil {
				w.lat[clsAll].add(c.opLat)
				w.busy += c.opLat
				w.attempted++
			}
			return
		}
	}
	panic("mix percentages do not reach 100")
}
