package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/obs"
)

const (
	// setupReps is how many times a run sets the workload up; setup_s is
	// the median, and one set-up instance is the one measured.
	setupReps = 25
	// segments splits the measured ops into contiguous groups; the
	// per-op means (throughput, CPU) are medians over groups,
	// so one stalled stretch of a shared machine moves one group only.
	segments = 10
	// settle lets asynchronous session acks land before counters are read.
	settle = 100 * time.Millisecond
)

// sample is what one timed op cost.
type sample struct {
	wall time.Duration
	cpu  time.Duration // process user+sys CPU during the op
}

// runner drives one workload: set-up, the closed loop of ops with the
// oracle outside the timed interval, and failure accounting.
type runner struct {
	spec      *workloadSpec
	seed      uint64
	opTimeout time.Duration
	onTimeout func(k int)
	watchdog  *time.Timer // armed around each op; fires onTimeout
	current   atomic.Int64

	attempted atomic.Int64
	failed    atomic.Int64
	problems  []string // why the run is not correct, if it is not

	rt []metrics.Sample
}

func newRunner(spec *workloadSpec, seed uint64) *runner {
	r := &runner{
		spec:      spec,
		seed:      seed,
		opTimeout: 30 * time.Second,
		rt: []metrics.Sample{
			{Name: "/gc/cycles/total:gc-cycles"},
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
			{Name: "/cpu/classes/total:cpu-seconds"},
		},
	}
	r.watchdog = time.AfterFunc(time.Hour, func() { r.onTimeout(int(r.current.Load())) })
	r.watchdog.Stop()
	return r
}

func (r *runner) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	r.problems = append(r.problems, msg)
}

// gcStats returns the runtime's cumulative GC cycles, GC CPU seconds and
// total available CPU seconds.
func (r *runner) gcStats() (cycles uint64, gcCPU, totalCPU float64) {
	metrics.Read(r.rt)
	return r.rt[0].Value.Uint64(), r.rt[1].Value.Float64(), r.rt[2].Value.Float64()
}

// totalAlloc returns the heap bytes allocated so far. ReadMemStats
// flushes every per-proc cache first, so the count is exact; the cheap
// runtime/metrics reading counts small objects a span at a time, which
// made near-zero per-op figures jump by whole spans between runs.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// op runs op k: stamp inputs, time the op, then check it. A returned
// error stops the loop (ok false); an oracle mismatch is a failed op but
// the loop goes on. An op that outlives opTimeout is reported through
// onTimeout, which ends the process. Nothing here allocates, so the
// window's allocation count is the workload's alone.
func (r *runner) op(w workload, t *tracer, k int) (s sample, ok bool) {
	w.prepare(k)
	r.attempted.Add(1)
	r.current.Store(int64(k))
	r.watchdog.Reset(r.opTimeout)
	t.beginOp(k)
	c0, t0 := cpuTime(), time.Now()
	err := w.run(k)
	s.wall = time.Since(t0)
	s.cpu = cpuTime() - c0
	t.endOp()
	r.watchdog.Stop()
	if err != nil {
		r.failed.Add(1)
		r.problem("op %d: %v", k, err)
		return s, false
	}
	if err := w.verify(k); err != nil {
		r.failed.Add(1)
		r.problem("op %d: oracle: %v", k, err)
	}
	return s, true
}

// setup sets the workload up and runs its first verified op; the elapsed
// time is one setup_s sample.
func (r *runner) setup(t *tracer) (workload, time.Duration, error) {
	start := time.Now()
	w, err := r.spec.setup(t, r.seed)
	if err != nil {
		return nil, 0, fmt.Errorf("set up %s: %w", r.spec.name, err)
	}
	if _, ok := r.op(w, t, 0); !ok {
		w.close()
		return nil, 0, errors.New("first op failed")
	}
	return w, time.Since(start), nil
}

// window runs ops 1, 2, ... until d has passed or, when n > 0, exactly n
// ops have run. It returns their samples and the heap bytes they
// allocated.
func (r *runner) window(w workload, t *tracer, d time.Duration, n int) ([]sample, uint64) {
	out := make([]sample, 0, max(n, 1<<16))
	alloc0 := totalAlloc()
	start := time.Now()
	for k := 1; ; k++ {
		if n > 0 && len(out) >= n || n == 0 && time.Since(start) >= d {
			break
		}
		s, ok := r.op(w, t, k)
		if !ok {
			break
		}
		out = append(out, s)
	}
	return out, totalAlloc() - alloc0
}

// teardown closes the workload, waits for every pooled buffer to come
// back and collects the instance's garbage, so repeated set-ups do not
// pile up in the peak RSS.
func (r *runner) teardown(w workload, baseline int64) {
	if err := w.close(); err != nil {
		r.problem("teardown: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for bufpool.Outstanding() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
}

// counters is a snapshot of the process-wide obs registry.
type counters obs.Snapshot

func snapshotCounters() counters {
	time.Sleep(settle)
	return counters(obs.Default().Snapshot())
}

// delta returns the growth of counter name from c to later.
func (c counters) delta(later counters, name string) float64 {
	return float64(later.Counters[name] - c.Counters[name])
}

// histSum returns the growth of histogram name's sum from c to later.
func (c counters) histSum(later counters, name string) float64 {
	return float64(later.Histograms[name].Sum - c.Histograms[name].Sum)
}

// faultFree reports the window invalid if the session or PRMI layer had
// to recover from anything: the benchmark measures the healthy path only.
func (r *runner) faultFree(before, after counters) {
	for _, name := range []string{"session.reconnects", "session.frames_replayed", "prmi.retries", "prmi.dedup_hits"} {
		if d := before.delta(after, name); d != 0 {
			r.problem("invalid run: %s grew by %v during the measured window", name, d)
		}
	}
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// wallMS returns the ops' wall times in milliseconds, sorted.
func wallMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.wall) / 1e6
	}
	sort.Float64s(out)
	return out
}

// segmentMedian splits samples into contiguous segments, applies f to
// each and returns the median.
func segmentMedian(samples []sample, f func(seg []sample) float64) float64 {
	k := min(segments, len(samples))
	var vals []float64
	for i := 0; i < k; i++ {
		seg := samples[i*len(samples)/k : (i+1)*len(samples)/k]
		vals = append(vals, f(seg))
	}
	return median(vals)
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MB.
func rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
