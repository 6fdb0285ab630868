package main

import (
	"testing"
	"time"

	"springfs/internal/blockdev"
	"springfs/internal/netsim"
)

// TestDevLedgerChargesLikeMemDevice replays MemDevice's charging rule
// (blockdev.MemDevice.charge, ReadRun, WriteRun) on the ledger: every I/O
// pays rotation plus transfer per block, an I/O that does not follow the
// previous one pays a seek, and a run pays one positioning charge.
func TestDevLedgerChargesLikeMemDevice(t *testing.T) {
	p := blockdev.LatencyProfile{Seek: 1000, Rotation: 100, PerBlock: 10}
	d := newDevLedger(blockdev.NewMem(64, blockdev.ProfileNone), p)
	blk := make([]byte, blockdev.BlockSize)
	run := make([]byte, 4*blockdev.BlockSize)
	steps := []struct {
		name  string
		io    func() error
		cost  time.Duration
		seeks int64
	}{
		{"the first I/O seeks", func() error { return d.ReadBlock(10, blk) }, 1000 + 100 + 10, 1},
		{"the next block is sequential", func() error { return d.WriteBlock(11, blk) }, 100 + 10, 0},
		{"a sequential run pays one rotation", func() error { return d.ReadRun(12, run) }, 100 + 4*10, 0},
		{"a backward I/O seeks", func() error { return d.ReadBlock(3, blk) }, 1000 + 100 + 10, 1},
		{"a non-sequential run seeks once", func() error { return d.WriteRun(30, run) }, 1000 + 100 + 4*10, 1},
		{"rewriting the same block seeks", func() error { return d.WriteBlock(33, blk) }, 1000 + 100 + 10, 1},
		{"a flush charges nothing", d.Flush, 0, 0},
	}
	for _, s := range steps {
		before := d.snapshot()
		if err := s.io(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		after := d.snapshot()
		if got := after.Busy - before.Busy; got != s.cost {
			t.Errorf("%s: charged %v, want %v", s.name, got, s.cost)
		}
		if got := after.Seeks - before.Seeks; got != s.seeks {
			t.Errorf("%s: %d seeks, want %d", s.name, got, s.seeks)
		}
	}
	c := d.snapshot()
	if c.Reads != 6 || c.Writes != 6 || c.Flushes != 1 {
		t.Errorf("counts: %d reads, %d writes, %d flushes; want 6, 6, 1", c.Reads, c.Writes, c.Flushes)
	}
	if c.ReadBytes != 6*blockdev.BlockSize || c.WriteBytes != 6*blockdev.BlockSize {
		t.Errorf("bytes: %d read, %d written; want %d each", c.ReadBytes, c.WriteBytes, 6*blockdev.BlockSize)
	}
}

// TestImageBytesCountsWrittenBlocks checks that a device image is charged
// a block for each block ever written, once however often it is
// rewritten, and that a remounted ledger keeps the count.
func TestImageBytesCountsWrittenBlocks(t *testing.T) {
	d := newDevLedger(blockdev.NewMem(64, blockdev.ProfileNone), blockdev.ProfileNone)
	blk := make([]byte, blockdev.BlockSize)
	run := make([]byte, 4*blockdev.BlockSize)
	headers := d.imageBytes()
	for _, io := range []func() error{
		func() error { return d.WriteBlock(11, blk) },
		func() error { return d.WriteRun(30, run) },
		func() error { return d.WriteBlock(33, blk) },
		func() error { return d.ReadBlock(40, blk) },
	} {
		if err := io(); err != nil {
			t.Fatal(err)
		}
	}
	want := headers + 5*blockdev.BlockSize
	if got := d.imageBytes(); got != want {
		t.Errorf("imageBytes = %d, want %d (5 blocks written)", got, want)
	}
	r := d.remount()
	if err := r.WriteBlock(12, blk); err != nil {
		t.Fatal(err)
	}
	if got := r.imageBytes(); got != want+blockdev.BlockSize {
		t.Errorf("after remount imageBytes = %d, want %d", got, want+blockdev.BlockSize)
	}
}

// TestLinkLedgerChargesPerMessage checks that every Write on a wrapped
// connection books latency plus size over bandwidth, and that the
// listener wraps the server side too.
func TestLinkLedgerChargesPerMessage(t *testing.T) {
	l := &linkLedger{profile: netsim.Profile{Latency: 10 * time.Microsecond, BytesPerSecond: 1 << 20}}
	network := netsim.New(netsim.ProfileNone)
	raw, err := network.Listen("ledger")
	if err != nil {
		t.Fatal(err)
	}
	ln := &ledgerListener{Listener: raw, l: l}
	defer ln.Close()
	conn, err := network.Dial("ledger")
	if err != nil {
		t.Fatal(err)
	}
	client := &ledgerConn{Conn: conn, l: l}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	msg := make([]byte, 1024)
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Write(msg[:512]); err != nil {
		t.Fatal(err)
	}
	c := l.snapshot()
	// 1024 B and 512 B at 1 MiB/s take 976562 ns and 488281 ns.
	want := 2*10*time.Microsecond + 976562 + 488281
	if c.Messages != 2 || c.Bytes != 1536 || c.Busy != want {
		t.Errorf("ledger = %+v, want 2 messages, 1536 bytes, %v", c, want)
	}
}

// TestWorkloadsRunCorrect runs every workload briefly and requires every
// op and the closing check to succeed.
func TestWorkloadsRunCorrect(t *testing.T) {
	for name, w := range workloads {
		r, err := measure(w, 1, 300*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d ops failed", name, r.Correct, r.Failed, r.Attempted)
		}
		for m, v := range r.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: metric %s = %v, want > 0", name, m, v.Value)
			}
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}} {
		if got := h.quantile(c.q); got < c.want*0.99 || got > c.want*1.01 {
			t.Errorf("quantile(%v) = %v µs, want %v within 1%%", c.q, got, c.want)
		}
	}
}

// TestHistMergeScaled checks that a scaled merge moves every quantile by
// the scale, within the histogram's precision.
func TestHistMergeScaled(t *testing.T) {
	var h, scaled hist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	scaled.mergeScaled(&h, 0.5)
	scaled.mergeScaled(&h, 0.5)
	if scaled.n != 2*h.n {
		t.Fatalf("n = %d, want %d", scaled.n, 2*h.n)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := h.quantile(q) / 2
		if got := scaled.quantile(q); got < want*0.98 || got > want*1.02 {
			t.Errorf("quantile(%v) = %v µs, want %v within 2%%", q, got, want)
		}
	}
}

// TestHostSpeed checks that a host-speed sample is a plausible ratio.
func TestHostSpeed(t *testing.T) {
	if k := hostSpeed(2); !(k > 0.05 && k < 20) {
		t.Errorf("hostSpeed = %v, want a ratio near 1", k)
	}
}
