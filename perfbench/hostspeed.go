package main

import (
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Host speed. The benchmark runs on virtual machines whose vCPUs share
// physical CPUs with other tenants, and how fast a vCPU runs the same code
// changes with their load. On the 2-vCPU virtual machine the benchmark was
// written on, a fixed integer loop timed every millisecond had 5 s medians
// from 0.82 to 1.65 ms within one minute, with no steal reported; such
// drift moves every time metric of a run as far as a large regression
// would. So a measured segment interleaves its workload with short
// reference samples: the clients pause, and a fixed kernel, the
// benchmark's own code, runs on locked OS threads while each reads its own
// CPU time. The kernel's rate per CPU second, over refRate, is the host's
// speed at that moment, and every time metric is reported at the speed
// refRate stands for: a time measured while the host ran at speed k is
// reported as k times itself. Thread CPU time, not wall time, makes the
// sample blind to whatever else runs in the process, so work the file
// system leaves running in the background cannot slow the reference and
// flatter its own figures.

// refRate is the reference kernel's rate, in iterations per thread CPU
// second, that time metrics are reported at: the kernel's median rate on
// the machine the benchmark was written on. It is a fixed unit of
// account, like a reference machine; changing it rescales every time
// metric, so results taken with different values do not compare.
const refRate = 800000

// refSample is how long one reference sample runs.
const refSample = 50 * time.Millisecond

const refArenaSize = 8 << 20

// refArena is the memory the kernel copies from. It is mapped outside the
// Go heap, so it counts neither in heap_live_MB nor in the collector's
// pacing of the file system's heap.
var refArena = sync.OnceValue(func() []byte {
	b, err := syscall.Mmap(-1, 0, refArenaSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	x := uint64(1)
	for i := 0; i < len(b); i += 8 {
		x = mix64(x)
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return b
})

// refIter is one step of the reference kernel: copy a random 4 KiB page
// out of the arena, checksum it, and run its sum through integer
// arithmetic, so memory, vector and scalar speed all count, as they do
// in the file system's own work.
func refIter(arena, buf []byte, x uint64) uint64 {
	x = mix64(x)
	off := int(x%uint64(len(arena)-len(buf))) &^ 63
	copy(buf, arena[off:])
	x ^= uint64(crc32.ChecksumIEEE(buf))
	for i := 0; i < 256; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 13
	}
	return x
}

var refSink atomic.Uint64

// threadCPU returns the CPU time of the calling OS thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// hostSpeed runs the reference kernel on threads locked OS threads for
// refSample and returns the host's speed: the kernel's iterations per
// thread CPU second, over refRate.
func hostSpeed(threads int) float64 {
	arena := refArena()
	var stop atomic.Bool
	var iters, cpu atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			var buf [pageSize]byte
			t0 := threadCPU()
			var n int64
			// A thread that starts late still runs a few steps, so the
			// rate never divides by nothing.
			for n < 64 || !stop.Load() {
				x = refIter(arena, buf[:], x)
				n++
			}
			cpu.Add(int64(threadCPU() - t0))
			iters.Add(n)
			refSink.Add(x)
		}(uint64(i) + 1)
	}
	time.Sleep(refSample)
	stop.Store(true)
	wg.Wait()
	return float64(iters.Load()) / time.Duration(cpu.Load()).Seconds() / refRate
}
