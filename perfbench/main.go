// Command perfbench is springfs's benchmark: it drives one named workload
// through the POSIX layer (unixapi.Process) with two closed-loop clients,
// checks every byte it reads, and prints the end-to-end metrics as the
// last line of standard output, one JSON object. With -trace 1 it instead
// makes a one-client untraced pass and a traced pass of the same ops, and
// prints per-layer metrics. See README.md for the workloads and metrics.
//
//	go run . -workload hot-posix -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"springfs/internal/stats"
)

// workload is one named system plus op mix.
type workload struct {
	build func(s *stack, seed int64, nclients int) error
	mix   mix
}

var workloads = map[string]workload{
	"hot-posix": {buildHotPOSIX, mix{
		{70, (*client).pread}, {85, (*client).pwrite}, {95, (*client).fstat}, {100, (*client).openClose}}},
	"crypt-mix": {buildCryptMix, mix{
		{80, (*client).pread}, {90, (*client).pwrite}, {100, (*client).fstat}}},
	"comp-mix": {buildCompMix, mix{
		{80, (*client).pread}, {90, (*client).pwrite}, {100, (*client).fstat}}},
	"cold-durable": {buildColdDurable, mix{
		{85, (*client).pread}, {88, (*client).fstat}, {90, (*client).openClose}, {100, (*client).syncUnit}}},
	"remote-dfs": {buildRemoteDFS, mix{
		{60, (*client).pread}, {80, (*client).pwrite}, {90, (*client).fstat}, {100, (*client).openClose}}},
}

const (
	// nClients matches the host's two CPUs: POSIX callers block on every
	// call, so two closed-loop clients keep both busy.
	nClients = 2
	// setups is how many times a measured run at least builds its stack;
	// setup_s is the median.
	setups = 5
	// segmentLen is the length of a measured segment (see measure).
	segmentLen = 5 * time.Second
	// sliceLen is the length of a slice of a segment: the clients' run,
	// then a host-speed sample (see runSegment). Standard error shows each
	// slice's ops.
	sliceLen = 500 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload {%s} -seed N -seconds N -trace {0|1}\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	run := measure
	if *trace == 1 {
		run = traced
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-30s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// set records a metric, mapping a non-finite value to 0 so the result
// stays valid JSON.
func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func build(w workload, seed int64, nclients int) (*stack, time.Duration, error) {
	s := &stack{}
	start := time.Now()
	if err := w.build(s, seed, nclients); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// resetCounters zeroes every counter and histogram a pass reads.
func (s *stack) resetCounters() {
	stats.Default.ResetAll()
	for _, d := range s.devs {
		d.reset()
	}
	if s.link != nil {
		s.link.reset()
	}
	for _, d := range s.domains {
		d.Invocations.Reset()
	}
	s.vmm.PageIns.Reset()
	for _, c := range s.cohs {
		c.LowerPageIns.Reset()
		c.Revocations.Reset()
	}
}

// verify is the untimed check after a pass: cold-durable's durability
// check, or a full read-back of every page elsewhere. Either stops or
// leaves the stack for close.
func (s *stack) verify() error {
	if s.mem != nil {
		return s.checkDurable()
	}
	return s.clients[0].verifyAll()
}

func (s *stack) devCounts() devCounts {
	var t devCounts
	for _, d := range s.devs {
		c := d.snapshot()
		t.Reads += c.Reads
		t.Writes += c.Writes
		t.Seeks += c.Seeks
		t.Flushes += c.Flushes
		t.ReadBytes += c.ReadBytes
		t.WriteBytes += c.WriteBytes
		t.Busy += c.Busy
	}
	return t
}

func (s *stack) linkCounts() linkCounts {
	if s.link == nil {
		return linkCounts{}
	}
	return s.link.snapshot()
}

// measure is the end-to-end run. It cuts d into segments of segmentLen,
// each on a freshly built stack, runs both clients through each, and
// checks each stack afterwards. Fresh stacks make a workload whose state
// drifts, like cold-durable's, measure the same stretch however long the
// run. Every time is reported at the reference host speed (hostspeed.go).
// The first slice of every segment is a warm-up; each metric is taken
// over the rest of a segment, and the run reports its median over the
// segments, so one segment that outside load slowed does not move the
// result.
func measure(w workload, seed int64, d time.Duration) (*result, error) {
	segments := max(1, int(d/segmentLen))
	var setup []float64
	vals := make(map[string][]float64)
	var attempted, failed int64
	// setUp builds a stack and takes a host-speed sample right after it,
	// which scales the set-up time and opens the segment.
	setUp := func() (*stack, float64, error) {
		s, took, err := build(w, seed, nClients)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		k := hostSpeed(nClients)
		setup = append(setup, took.Seconds()*k)
		return s, k, nil
	}
	// Extra set-ups beyond one per segment only time the set-up.
	for i := segments; i < setups; i++ {
		s, _, err := setUp()
		if err != nil {
			return nil, err
		}
		s.close()
	}
	for i := 0; i < segments; i++ {
		s, k, err := setUp()
		if err != nil {
			return nil, err
		}
		seg := runSegment(s, w, d/time.Duration(segments), k)
		s.close()
		attempted += seg.attempted
		failed += seg.failed
		for name, v := range seg.metrics {
			vals[name] = append(vals[name], v)
		}
	}

	r := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for name, v := range vals {
		r.set(name, median(v), units[name])
	}
	r.set("setup_s", median(setup), "s")
	return r, nil
}

// units gives the unit of every metric runSegment takes.
var units = map[string]string{
	"ops_per_s": "1/s", "lat_p50_us": "us", "lat_p99_us": "us", "read_p50_us": "us", "read_p99_us": "us",
	"write_p50_us": "us", "meta_p50_us": "us", "model_us_per_op": "us", "heap_live_MB": "MB",
}

// segment is what runSegment measured on one stack.
type segment struct {
	attempted, failed int64
	metrics           map[string]float64
}

// runSegment runs s's clients for d in slices of sliceLen, then checks
// the stack. k0 is the host speed sampled just before. After each slice
// both clients pause while hostSpeed samples the host again; a slice's
// latencies and time are scaled by the mean of the samples on either side
// of it. The first slice is the warm-up.
func runSegment(s *stack, w workload, d time.Duration, k0 float64) segment {
	runtime.GC()
	s.resetCounters()
	slices := max(2, int(d/sliceLen))
	speeds := []float64{k0}
	ops := make([]int64, slices)
	t := &window{} // the measured slices, scaled
	var worked, wall time.Duration
	for i := range slices {
		var stop atomic.Bool
		var wg sync.WaitGroup
		start := time.Now()
		for _, c := range s.clients {
			c.win = window{}
			c.rec = nil
			if i > 0 {
				c.rec = &c.win
			}
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				var n int64
				for !stop.Load() {
					c.step(w.mix)
					n++
				}
				atomic.AddInt64(&ops[i], n)
			}(c)
		}
		// The slice runs for its length at the reference speed, so a segment
		// does the same amount of work however fast the host runs; a
		// sample far below 1 stretches it at most 1.5-fold, which bounds
		// how long a run can take.
		time.Sleep(time.Duration(float64(sliceLen-refSample) / max(speeds[i], 2.0/3)))
		stop.Store(true)
		wg.Wait()
		took := time.Since(start)
		speeds = append(speeds, hostSpeed(len(s.clients)))
		if i == 0 {
			continue
		}
		k := (speeds[i] + speeds[i+1]) / 2
		worked += time.Duration(float64(took) * k)
		wall += took
		for _, c := range s.clients {
			t.mergeScaled(&c.win, k)
		}
	}
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so only live data remains.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// The benchmark's own memory is not the file system's: the histograms
	// and the device images.
	own := uint64(len(s.clients)+1)*uint64(unsafe.Sizeof(window{})) + s.imageBytes()
	heap := float64(ms.HeapAlloc-min(own, ms.HeapAlloc)) / (1 << 20)

	seg := segment{metrics: make(map[string]float64)}
	for _, c := range s.clients {
		seg.attempted += c.attempted
	}
	m := seg.metrics
	m["ops_per_s"] = float64(t.attempted) / worked.Seconds()
	m["lat_p50_us"] = t.lat[clsAll].quantile(0.5)
	m["lat_p99_us"] = t.lat[clsAll].quantile(0.99)
	m["read_p50_us"] = t.lat[clsRead].quantile(0.5)
	m["read_p99_us"] = t.lat[clsRead].quantile(0.99)
	m["write_p50_us"] = t.lat[clsWrite].quantile(0.5)
	m["meta_p50_us"] = t.lat[clsMeta].quantile(0.5)
	// The ledger's charges are counted, not timed, so they come from every
	// op, the warm-up's too, and need no scaling.
	ledger := s.devCounts().Busy + s.linkCounts().Busy
	m["model_us_per_op"] = float64(t.busy)/1e3/float64(t.attempted) + float64(ledger)/1e3/float64(seg.attempted)
	m["heap_live_MB"] = heap

	fmt.Fprintf(os.Stderr, "ops per slice %v (the first is the warm-up)\n", ops)
	fmt.Fprintf(os.Stderr, "host speed %.3f; unscaled ops_per_s %.0f\n", speeds, float64(t.attempted)/wall.Seconds())
	fmt.Fprintf(os.Stderr, "samples after warm-up: ops %d, reads %d, writes %d, meta %d, sync units %d\n",
		t.lat[clsAll].n, t.lat[clsRead].n, t.lat[clsWrite].n, t.lat[clsMeta].n, t.lat[clsSync].n)

	for _, c := range s.clients {
		seg.failed += c.failed
		if c.firstErr != nil {
			fmt.Fprintf(os.Stderr, "first failure: %v\n", c.firstErr)
		}
	}
	if err := s.verify(); err != nil {
		seg.failed++
		fmt.Fprintf(os.Stderr, "verify: %v\n", err)
	}
	return seg
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// pass is what one single-client pass of the traced run measured.
type pass struct {
	c         *client
	counters  map[string]int64
	hists     map[string]histSum
	dev       devCounts
	link      linkCounts
	crossings int64
	vmPageIns int64
	cohLower  int64
	cohRevoke int64
	compRatio float64
	allocs    uint64
	allocB    uint64
	gcFrac    float64
	acc       *spanAcc
}

// onePass runs one client on a fresh stack, for d or, when n > 0, for
// exactly n ops, tracing when trace is set.
func onePass(w workload, seed int64, trace bool, d time.Duration, n int64) (*pass, error) {
	s, _, err := build(w, seed, 1)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer s.close()
	runtime.GC()
	s.resetCounters()
	gc0 := gcCPU()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	p := &pass{c: s.clients[0], acc: newSpanAcc()}
	if trace {
		stats.Trace.Reset()
		stats.Trace.Enable()
	}
	deadline := time.Now().Add(d)
	for i := int64(0); (n > 0 && i < n) || (n == 0 && time.Now().Before(deadline)); i++ {
		p.c.step(w.mix)
		if trace {
			p.acc.drain()
		}
	}
	stats.Trace.Disable()
	runtime.ReadMemStats(&ms1)
	gc1 := gcCPU()
	p.allocs = ms1.Mallocs - ms0.Mallocs
	p.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcFrac = ratio(gc1[0]-gc0[0], gc1[1]-gc0[1])
	p.counters = stats.Default.Snapshot()
	p.hists = make(map[string]histSum)
	for name, h := range stats.Default.Histograms() {
		p.hists[name] = histSum{n: h.Count(), total: h.Total()}
	}
	p.dev, p.link = s.devCounts(), s.linkCounts()
	for _, dom := range s.domains {
		p.crossings += dom.Invocations.Value()
	}
	p.vmPageIns = s.vmm.PageIns.Value()
	for _, c := range s.cohs {
		p.cohLower += c.LowerPageIns.Value()
		p.cohRevoke += c.Revocations.Value()
	}
	if s.comp != nil {
		p.compRatio = ratio(float64(s.comp.CompressedBytes.Value()), float64(s.comp.UncompressedBytes.Value()))
	}
	if err := s.verify(); err != nil {
		p.c.fail(fmt.Errorf("verify: %w", err))
	}
	return p, nil
}

// gcCPU returns the GC's and the whole program's CPU seconds so far.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// histSum is a histogram's count and total at the end of a pass; the
// registry's histograms are reset by the next pass.
type histSum struct {
	n     int64
	total time.Duration
}

// histMeanUS is the mean, in µs, of the histograms whose name satisfies
// match.
func histMeanUS(h map[string]histSum, match func(string) bool) float64 {
	var n int64
	var t time.Duration
	for name, x := range h {
		if match(name) {
			n += x.n
			t += x.total
		}
	}
	return ratio(float64(t)/1e3, float64(n))
}

func named(want ...string) func(string) bool {
	return func(name string) bool {
		for _, w := range want {
			if name == w {
				return true
			}
		}
		return false
	}
}

func prefixed(prefix string) func(string) bool {
	return func(name string) bool { return strings.HasPrefix(name, prefix) }
}

// traced is the per-layer run: a calibration of the sleep-based models, a
// one-client untraced pass for 2/5 of d, and a traced pass of exactly the
// same ops on a fresh stack. Counters come from the untraced pass, times
// from the traced one; the program counters of the two must agree.
func traced(w workload, seed int64, d time.Duration) (*result, error) {
	devErr, netErr, err := calibrate(200)
	if err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	u, err := onePass(w, seed, false, d*2/5, 0)
	if err != nil {
		return nil, err
	}
	ut := &u.c.win
	t, err := onePass(w, seed, true, 0, ut.attempted)
	if err != nil {
		return nil, err
	}

	failed := u.c.failed + t.c.failed
	for _, c := range []*client{u.c, t.c} {
		if c.firstErr != nil {
			fmt.Fprintf(os.Stderr, "first failure: %v\n", c.firstErr)
		}
	}
	// dev.seeks is left out: the VMM's concurrent write-back workers order
	// device writes differently from run to run, so two untraced passes of
	// the same ops already disagree on it.
	match := true
	for _, k := range [][3]any{
		{"vmm.misses", u.counters["vmm.misses"], t.counters["vmm.misses"]},
		{"coh.lower_page_ins", u.cohLower, t.cohLower},
		{"disk.journal.txns", u.counters["disk.journal.txns"], t.counters["disk.journal.txns"]},
		{"dev.reads", u.dev.Reads, t.dev.Reads},
		{"dev.writes", u.dev.Writes, t.dev.Writes},
		{"dev.flushes", u.dev.Flushes, t.dev.Flushes},
	} {
		if k[1] != k[2] {
			match = false
			fmt.Fprintf(os.Stderr, "traced run diverged: %s untraced %v traced %v\n", k[0], k[1], k[2])
		}
	}

	tt := &t.c.win
	r := &result{Correct: failed == 0 && match, Attempted: ut.attempted + tt.attempted, Failed: failed, Metrics: map[string]metric{}}
	ops := float64(ut.attempted)
	reads := float64(ut.lat[clsRead].n)
	perOp := func(v int64) float64 { return float64(v) / ops }
	cnt := u.counters
	selfUS := func(layer string) float64 { return float64(t.acc.self[layer]) / 1e3 / ops }

	for _, l := range spanLayers {
		r.set(l+".self_us", selfUS(l), "us/op")
	}
	r.set("naming.resolve_us", t.acc.meanUS(named("naming.resolve")), "us")
	r.set("spring.handoff_us", histMeanUS(t.hists, prefixed("spring.")), "us")
	r.set("spring.crossings_per_op", perOp(u.crossings), "count/op")

	r.set("go.allocs_per_op", float64(u.allocs)/ops, "count/op")
	r.set("go.alloc_bytes_per_op", float64(u.allocB)/ops, "B/op")
	r.set("go.gc_cpu_frac", u.gcFrac, "ratio")

	hits, misses := float64(cnt["vmm.hits"]), float64(cnt["vmm.misses"])
	r.set("vm.hit_ratio", ratio(hits, hits+misses), "ratio")
	r.set("vm.page_ins_per_read", ratio(float64(u.vmPageIns), reads), "count/op")
	r.set("vm.page_in_us", histMeanUS(u.hists, named("vmm.page_in")), "us")
	r.set("vm.evict_sweeps", perOp(cnt["vmm.lru.sweeps"]), "count/op")
	r.set("vm.flush_pages_per_extent", ratio(float64(cnt["vmm.flush.pages"]), float64(cnt["vmm.flush.extents"])), "ratio")

	r.set("coh.page_in_us", histMeanUS(u.hists, named("coh.page_in")), "us")
	r.set("coh.revokes_per_op", perOp(u.cohRevoke), "count/op")
	r.set("coh.write_through_us", histMeanUS(u.hists, named("coh.write_through")), "us")
	r.set("coh.lower_page_ins", perOp(u.cohLower), "count/op")

	r.set("disk.page_in_us", histMeanUS(u.hists, named("disk.page_in")), "us")
	r.set("disk.page_out_us", histMeanUS(u.hists, named("disk.page_out")), "us")
	r.set("disk.journal_us", histMeanUS(u.hists, named("disk.journal")), "us")
	r.set("disk.txns_per_batch", ratio(float64(cnt["disk.journal.txns"]), float64(cnt["disk.journal.batches"])), "ratio")
	raHits := float64(cnt["disk.readahead.hits"])
	r.set("disk.readahead_hit_ratio", ratio(raHits, raHits+float64(cnt["disk.readahead.wasted"])), "ratio")
	r.set("disk.alloc_contig_ratio", ratio(float64(cnt["disk.alloc.contig"]), float64(cnt["disk.alloc.blocks"])), "ratio")
	r.set("disk.sync_unit_p50_us", ut.lat[clsSync].quantile(0.5), "us")

	r.set("dev.reads", perOp(u.dev.Reads), "count/op")
	r.set("dev.writes", perOp(u.dev.Writes), "count/op")
	r.set("dev.seeks", perOp(u.dev.Seeks), "count/op")
	r.set("dev.flushes", perOp(u.dev.Flushes), "count/op")
	r.set("dev.read_amp", ratio(float64(u.dev.ReadBytes), float64(u.c.readBytes)), "ratio")
	r.set("dev.write_amp", ratio(float64(u.dev.WriteBytes), float64(u.c.writeBytes)), "ratio")
	r.set("dev.model_busy_ms", float64(u.dev.Busy)/1e6, "ms")
	r.set("dev.model_us_per_op", float64(u.dev.Busy)/1e3/ops, "us")
	r.set("dev.timer_error_ratio", devErr, "ratio")

	r.set("dfs.msgs_per_op", perOp(u.link.Messages), "count/op")
	r.set("dfs.bytes_per_op", perOp(u.link.Bytes), "B/op")
	r.set("dfs.call_us", histMeanUS(u.hists, prefixed("dfs.")), "us")
	r.set("dfs.server_us", t.acc.meanUS(prefixed("api:export.")), "us")
	r.set("dfs.retries", float64(cnt["dfs.retry"]), "count")
	r.set("dfs.timeouts", float64(cnt["dfs.timeout"]), "count")

	r.set("net.messages", perOp(u.link.Messages), "count/op")
	r.set("net.bytes", perOp(u.link.Bytes), "B/op")
	r.set("net.model_busy_ms", float64(u.link.Busy)/1e6, "ms")
	r.set("net.model_us_per_op", float64(u.link.Busy)/1e3/ops, "us")
	r.set("net.timer_error_ratio", netErr, "ratio")

	r.set("cryptfs.read_us", t.acc.meanUS(named("api:cryptfs.ReadAt")), "us")
	r.set("cryptfs.write_us", t.acc.meanUS(named("api:cryptfs.WriteAt")), "us")
	r.set("compfs.read_us", t.acc.meanUS(named("api:compfs.ReadAt")), "us")
	r.set("compfs.write_us", t.acc.meanUS(named("api:compfs.WriteAt")), "us")
	r.set("compfs.page_in_us", histMeanUS(u.hists, named("compfs.page_in")), "us")
	codecReads := t.acc.countOf(named("api:cryptfs.ReadAt", "api:compfs.ReadAt"))
	r.set("codec.lower_calls_per_read", ratio(float64(t.acc.countOf(prefixed("api:sfs."))), float64(codecReads)), "count/op")
	r.set("compfs.ratio", u.compRatio, "ratio")

	uRate := ops / ut.busy.Seconds()
	tRate := float64(tt.attempted) / tt.busy.Seconds()
	r.set("trace.ops_per_s_untraced", uRate, "1/s")
	r.set("trace.ops_per_s_traced", tRate, "1/s")
	r.set("trace.overhead_ratio", ratio(uRate, tRate)-1, "ratio")
	r.set("trace.dropped_spans", float64(t.acc.dropped), "count")
	if match {
		r.set("trace.counters_match", 1, "bool")
	} else {
		r.set("trace.counters_match", 0, "bool")
	}
	return r, nil
}
