package main

import (
	"net"
	"sync"
	"time"
	"unsafe"

	"springfs/internal/blockdev"
	"springfs/internal/netsim"
	"springfs/internal/stats"
)

// The benchmark runs every workload on an instant device and an instant
// link, and charges the DiskFast and LANFast arithmetic into a ledger
// instead of sleeping it. A sleep of a few microseconds measures the host
// timer (see README.md), while the ledger's modelled time depends only on
// the I/Os and messages the program issued.

// devLedger wraps the block device handed to disklayer.Mount. It charges
// MemDevice's rule: rotation plus transfer per block I/O, plus a seek
// when the I/O does not follow the previous one; a ReadRun or WriteRun
// pays one positioning charge (rotation, plus a seek when not sequential)
// for the whole run plus transfer per block.
type devLedger struct {
	inner   *blockdev.MemDevice
	profile blockdev.LatencyProfile

	mu      sync.Mutex
	lastBn  int64
	c       devCounts
	written *blockSet
}

// blockSet records which blocks of a MemDevice were ever written.
// MemDevice keeps each such block in RAM, so they are the benchmark's
// memory, not the file system's.
type blockSet struct {
	mu   sync.Mutex
	bits []uint64
	n    int64
}

func (b *blockSet) add(bn, n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := bn; i < bn+n; i++ {
		if w, bit := i/64, uint64(1)<<(i%64); b.bits[w]&bit == 0 {
			b.bits[w] |= bit
			b.n++
		}
	}
}

// devCounts is a snapshot of a device ledger.
type devCounts struct {
	Reads, Writes, Seeks, Flushes int64 // blocks read and written; seeks; flushes
	ReadBytes, WriteBytes         int64
	Busy                          time.Duration // modelled device time
}

var (
	_ blockdev.Device    = (*devLedger)(nil)
	_ blockdev.RunReader = (*devLedger)(nil)
)

func newDevLedger(inner *blockdev.MemDevice, profile blockdev.LatencyProfile) *devLedger {
	written := &blockSet{bits: make([]uint64, (inner.NumBlocks()+63)/64)}
	return &devLedger{inner: inner, profile: profile, lastBn: -2, written: written}
}

// remount returns a fresh ledger over the same device, for a new mount
// of its image.
func (d *devLedger) remount() *devLedger {
	return &devLedger{inner: d.inner, profile: d.profile, lastBn: -2, written: d.written}
}

// imageBytes is the RAM the device's image holds: a slice header per
// block and a block's bytes for every block ever written.
func (d *devLedger) imageBytes() uint64 {
	d.written.mu.Lock()
	defer d.written.mu.Unlock()
	return uint64(d.inner.NumBlocks())*uint64(unsafe.Sizeof([]byte(nil))) + uint64(d.written.n)*blockdev.BlockSize
}

// charge books one I/O of n blocks starting at bn.
func (d *devLedger) charge(bn, n int64, write bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cost := d.profile.Rotation + time.Duration(n)*d.profile.PerBlock
	if bn != d.lastBn+1 {
		cost += d.profile.Seek
		d.c.Seeks++
	}
	d.lastBn = bn + n - 1
	d.c.Busy += cost
	if write {
		d.written.add(bn, n)
		d.c.Writes += n
		d.c.WriteBytes += n * blockdev.BlockSize
	} else {
		d.c.Reads += n
		d.c.ReadBytes += n * blockdev.BlockSize
	}
}

func (d *devLedger) snapshot() devCounts {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.c
}

func (d *devLedger) reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.c = devCounts{}
}

func (d *devLedger) ReadBlock(bn int64, buf []byte) error {
	defer span("dev.read", begin(), blockdev.BlockSize)
	if err := d.inner.ReadBlock(bn, buf); err != nil {
		return err
	}
	d.charge(bn, 1, false)
	return nil
}

func (d *devLedger) WriteBlock(bn int64, buf []byte) error {
	defer span("dev.write", begin(), blockdev.BlockSize)
	if err := d.inner.WriteBlock(bn, buf); err != nil {
		return err
	}
	d.charge(bn, 1, true)
	return nil
}

func (d *devLedger) ReadRun(bn int64, buf []byte) error {
	defer span("dev.read_run", begin(), int64(len(buf)))
	if err := d.inner.ReadRun(bn, buf); err != nil {
		return err
	}
	d.charge(bn, int64(len(buf)/blockdev.BlockSize), false)
	return nil
}

func (d *devLedger) WriteRun(bn int64, buf []byte) error {
	defer span("dev.write_run", begin(), int64(len(buf)))
	if err := d.inner.WriteRun(bn, buf); err != nil {
		return err
	}
	d.charge(bn, int64(len(buf)/blockdev.BlockSize), true)
	return nil
}

func (d *devLedger) Flush() error {
	defer span("dev.flush", begin(), 0)
	if err := d.inner.Flush(); err != nil {
		return err
	}
	d.mu.Lock()
	d.c.Flushes++
	d.mu.Unlock()
	return nil
}

func (d *devLedger) NumBlocks() int64 { return d.inner.NumBlocks() }
func (d *devLedger) Close() error     { return d.inner.Close() }

// linkLedger charges LANFast's arithmetic for every message written on a
// wrapped connection: one-way latency plus bytes over bandwidth. One Write
// is one message, as in netsim.
type linkLedger struct {
	profile netsim.Profile

	mu sync.Mutex
	c  linkCounts
}

// linkCounts is a snapshot of a link ledger.
type linkCounts struct {
	Messages, Bytes int64
	Busy            time.Duration // modelled link time
}

func (l *linkLedger) charge(n int) {
	cost := l.profile.Latency
	if bps := l.profile.BytesPerSecond; bps > 0 {
		cost += time.Duration(int64(time.Second) * int64(n) / bps)
	}
	l.mu.Lock()
	l.c.Messages++
	l.c.Bytes += int64(n)
	l.c.Busy += cost
	l.mu.Unlock()
}

func (l *linkLedger) snapshot() linkCounts {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c
}

func (l *linkLedger) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.c = linkCounts{}
}

// ledgerConn books every successful Write on the link ledger. Reads are
// forwarded untouched: a blocked Read is idle time, not link work.
type ledgerConn struct {
	net.Conn
	l *linkLedger
}

func (c *ledgerConn) Write(p []byte) (int, error) {
	defer span("net.write", begin(), int64(len(p)))
	n, err := c.Conn.Write(p)
	if err == nil {
		c.l.charge(n)
	}
	return n, err
}

// ledgerListener wraps the server side of every accepted connection.
type ledgerListener struct {
	net.Listener
	l *linkLedger
}

func (ln *ledgerListener) Accept() (net.Conn, error) {
	c, err := ln.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &ledgerConn{Conn: c, l: ln.l}, nil
}

// calibrate measures how far the sleep-based models overshoot: n random
// block reads on a DiskFast MemDevice and n one-way messages on a LANFast
// network, each timed against the modelled time the ledger would book.
// The result is (measured - modelled) / modelled per substrate.
func calibrate(n int) (devErr, netErr float64, err error) {
	dev := blockdev.NewMem(4096, blockdev.ProfileFast)
	buf := make([]byte, blockdev.BlockSize)
	start := time.Now()
	for i := 0; i < n; i++ {
		// Stride 7 keeps every read non-sequential, so each pays a seek.
		if err := dev.ReadBlock(int64(i*7%4096), buf); err != nil {
			return 0, 0, err
		}
	}
	devWall := time.Since(start)
	p := blockdev.ProfileFast
	devModel := time.Duration(n) * (p.Seek + p.Rotation + p.PerBlock)

	network := netsim.New(netsim.ProfileFast)
	ln, err := network.Listen("calibrate")
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	client, err := network.Dial("calibrate")
	if err != nil {
		return 0, 0, err
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		return 0, 0, err
	}
	defer server.Close()
	msg := make([]byte, 64)
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := client.Write(msg); err != nil {
			return 0, 0, err
		}
		for got := 0; got < len(msg); {
			m, err := server.Read(msg[got:])
			if err != nil {
				return 0, 0, err
			}
			got += m
		}
	}
	netWall := time.Since(start)
	model := linkLedger{profile: netsim.ProfileFast}
	for i := 0; i < n; i++ {
		model.charge(len(msg))
	}
	netModel := model.snapshot().Busy
	return ratio(float64(devWall-devModel), float64(devModel)),
		ratio(float64(netWall-netModel), float64(netModel)), nil
}

// begin starts a benchmark-side span: it reads the clock only while the
// tracer is enabled, so an untraced run pays one atomic load per call.
func begin() time.Time {
	if stats.Trace.Enabled() {
		return time.Now()
	}
	return time.Time{}
}

// span ends a span begun by begin. Call it as
// `defer span(name, begin(), bytes)`.
func span(name string, start time.Time, bytes int64) {
	if !start.IsZero() {
		stats.Trace.Record(name, stats.BoundaryDirect, start, time.Since(start), bytes)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
