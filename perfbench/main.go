// Command perfbench is the repository's end-to-end benchmark: M×N
// redistribution and parallel remote method invocation driven closed-loop
// (one op in flight) from one process, with a self-checking oracle.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it sets the workload up several times (setup_s is the
// median), measures ops for --seconds and prints the end-to-end metrics.
// With --trace 1 it runs half the time untraced and then the same number
// of ops traced, with spans recorded around calls into each layer, and
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/obs"
)

// sessionAckFrame is the payload size of a standalone session ack frame
// (kind byte + cumulative ack, internal/session/frame.go). Acks are sent
// by timing, so the same-path check subtracts them from the copied bytes.
const sessionAckFrame = 9

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the benchmark's command line; it returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: bulk-tcp, strided-colocated or prmi-tcp")
	seed := fs.Uint64("seed", 1, "seed the op data is generated from")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	traceOut := fs.String("trace-out", "", "file the traced run writes its spans to (default .bench_build/perfbench-<workload>-spans.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := lookupWorkload(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(".bench_build", "perfbench-"+spec.name+"-spans.json")
	}
	// One proc for every workload. At two, cross-proc wakeups made the
	// loopback workloads' op latency, p90 above all, swing by tens of
	// percent between runs on a shared machine, and load on the second
	// CPU from other tenants made the co-located workload's p50 and p90
	// spread by half across runs. Op time then includes every rank's
	// work in sequence.
	runtime.GOMAXPROCS(1)

	r := newRunner(spec, *seed)
	r.onTimeout = func(k int) {
		fmt.Fprintf(os.Stderr, "perfbench: op %d did not finish within %v\n", k, r.opTimeout)
		emit(stdout, result{Attempted: r.attempted.Load(), Failed: r.failed.Load() + 1, Metrics: map[string]metricValue{}})
		os.Exit(1)
	}
	printEnv(stdout, spec, *seed, *trace == 1)

	d := time.Duration(*seconds * float64(time.Second))
	var vals map[string]float64
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		vals, err = measureLayers(r, d, *traceOut)
	} else {
		vals, err = measureEndToEnd(r, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, def := range defs {
		if _, ok := vals[def.Name]; !ok {
			r.problem("metric %s was not computed", def.Name)
		}
	}
	return emit(stdout, result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   withUnits(defs, vals),
	})
}

func emit(w io.Writer, res result) int {
	if err := printJSON(w, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		return 1
	}
	return 0
}

// printJSON writes v as one line.
func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// printEnv prints what the figures depend on, ahead of the result line.
func printEnv(w io.Writer, spec *workloadSpec, seed uint64, traced bool) {
	network := "loopback TCP on 127.0.0.1: the traffic crosses the host's loopback, so link rate and wire latency are not measured"
	if spec.name == "strided-colocated" {
		network = "none: one in-process world"
	}
	env := map[string]any{
		"workload":   spec.name,
		"why":        spec.why,
		"shape":      spec.shape,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"network":    network,
		"loop":       "closed, one op in flight",
	}
	if traced {
		env["interactions"] = perLayer
	}
	if err := printJSON(w, map[string]any{"env": env}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode env:", err)
	}
}

// setUp sets the workload up n times with a fresh tracer from newT each
// time (nil for untraced) and tears each instance down, except that with
// keep the last one is returned running, with its tracer. each sees every
// set-up's tracer, elapsed time and the counters around it.
func setUp(r *runner, baseline int64, n int, keep bool, newT func() *tracer, each func(t *tracer, took time.Duration, before, after counters)) (workload, *tracer, error) {
	for i := 0; i < n; i++ {
		t := newT()
		before := counters(obs.Default().Snapshot())
		w, took, err := r.setup(t)
		if err != nil {
			return nil, nil, err
		}
		each(t, took, before, counters(obs.Default().Snapshot()))
		if keep && i == n-1 {
			return w, t, nil
		}
		r.teardown(w, baseline)
	}
	return nil, nil, nil
}

func noTracer() *tracer { return nil }

func measureEndToEnd(r *runner, d time.Duration) (map[string]float64, error) {
	baseline := bufpool.Outstanding()
	// Half the set-ups run before the window and half after it, so the
	// median spans the run rather than one moment of a machine whose
	// speed drifts.
	var setups []float64
	keepTime := func(_ *tracer, took time.Duration, _, _ counters) { setups = append(setups, took.Seconds()) }
	w, _, err := setUp(r, baseline, setupReps-setupReps/2, true, noTracer, keepTime)
	if err != nil {
		return nil, err
	}
	// Every run enters its window from a freshly collected heap, as Go's
	// own benchmarks do, so GC pacing starts from the same state each run.
	runtime.GC()
	before := snapshotCounters()
	samples, alloc := r.window(w, nil, d, 0)
	after := snapshotCounters()
	r.faultFree(before, after)
	payload := float64(w.payloadBytes())
	r.teardown(w, baseline)
	if len(samples) == 0 {
		return nil, errors.New("no op completed in the measured window")
	}
	if _, _, err := setUp(r, baseline, setupReps/2, false, noTracer, keepTime); err != nil {
		return nil, err
	}
	if n := bufpool.Outstanding() - baseline; n != 0 {
		r.problem("%d pooled buffers still outstanding after teardown", n)
	}
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	ms := wallMS(samples)
	return map[string]float64{
		"setup_s":   median(setups),
		"op_ms_p50": quantile(ms, 0.5),
		"op_ms_p90": quantile(ms, 0.9),
		"payload_mb_s": segmentMedian(samples, func(seg []sample) float64 {
			var wall time.Duration
			for _, s := range seg {
				wall += s.wall
			}
			return payload * float64(len(seg)) / wall.Seconds() / 1e6
		}),
		"cpu_ms_per_op": segmentMedian(samples, func(seg []sample) float64 {
			var cpu time.Duration
			for _, s := range seg {
				cpu += s.cpu
			}
			return float64(cpu) / 1e6 / float64(len(seg))
		}),
		"alloc_mb_per_op": float64(alloc) / 1e6 / float64(len(samples)),
		"rss_peak_mb":     rss,
	}, nil
}

func measureLayers(r *runner, d time.Duration, traceOut string) (map[string]float64, error) {
	baseline := bufpool.Outstanding()

	// Untraced half: the configuration measureEndToEnd measures, giving
	// the reference for the tracing overhead and the same-path check.
	wA, _, err := r.setup(nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	beforeA := snapshotCounters()
	samplesA, _ := r.window(wA, nil, d/2, 0)
	afterA := snapshotCounters()
	r.faultFree(beforeA, afterA)
	r.teardown(wA, baseline)
	if len(samplesA) == 0 {
		return nil, errors.New("no op completed in the untraced window")
	}

	// Traced half: set-ups with spans, then the same ops as above.
	setupVals := map[string][]float64{}
	w, t, err := setUp(r, baseline, setupReps, true, newTracer, func(t *tracer, _ time.Duration, before, after counters) {
		sp := t.snapshot()
		setupVals["dad.template_ms"] = append(setupVals["dad.template_ms"], spanSum(sp, "dad", "template")/1e6)
		setupVals["sidl.parse_ms"] = append(setupVals["sidl.parse_ms"], spanSum(sp, "sidl", "parse")/1e6)
		setupVals["session.connect_ms"] = append(setupVals["session.connect_ms"], spanSum(sp, "session", "connect")/1e6)
		setupVals["schedule.build_ms"] = append(setupVals["schedule.build_ms"], before.histSum(after, "schedule.build_ns")/1e6)
	})
	if err != nil {
		return nil, err
	}
	runtime.GC()
	before := snapshotCounters()
	cyc0, gc0, tot0 := r.gcStats()
	windowStart := t.now()
	samples, _ := r.window(w, t, 0, len(samplesA))
	after := snapshotCounters()
	cyc1, gc1, tot1 := r.gcStats()
	r.faultFree(before, after)
	r.teardown(w, baseline)
	outstanding := bufpool.Outstanding() - baseline
	if outstanding != 0 {
		r.problem("%d pooled buffers still outstanding after teardown", outstanding)
	}
	if len(samples) != len(samplesA) {
		return nil, fmt.Errorf("traced window ran %d ops, untraced %d", len(samples), len(samplesA))
	}
	if err := t.writeFile(traceOut); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	// Same code path: the traced ops must put exactly the bytes of the
	// untraced ones on the vectored and copying wire paths.
	vecA, vecB := beforeA.delta(afterA, "wire.bytes_vectored"), before.delta(after, "wire.bytes_vectored")
	cpA := beforeA.delta(afterA, "wire.bytes_copied") - sessionAckFrame*beforeA.delta(afterA, "session.acks_sent")
	cpB := before.delta(after, "wire.bytes_copied") - sessionAckFrame*before.delta(after, "session.acks_sent")
	if vecA != vecB || cpA != cpB {
		r.problem("traced run left the untraced wire path: vectored %v vs %v bytes, copied data %v vs %v bytes", vecB, vecA, cpB, cpA)
	}

	var spans []span
	for _, s := range t.snapshot() {
		if s.Start >= windowStart {
			spans = append(spans, s)
		}
	}
	win := windowsOf(spans)
	self := selfTimes(spans, win)
	n := float64(len(samples))
	dl := func(name string) float64 { return before.delta(after, name) }
	perOp := func(name string) float64 { return dl(name) / n }
	msPerOp := func(ns float64) float64 { return ns / 1e6 / n }
	copied, vectored := dl("wire.bytes_copied"), dl("wire.bytes_vectored")
	p50A, p50B := quantile(wallMS(samplesA), 0.5), quantile(wallMS(samples), 0.5)

	vals := map[string]float64{
		"schedule.pack_ms_per_op":   msPerOp(before.histSum(after, "redist.pack_ns")),
		"schedule.unpack_ms_per_op": msPerOp(before.histSum(after, "redist.unpack_ns")),

		"redist.src_call_ms":          medianOpMax(spans, "redist", "src") / 1e6,
		"redist.dst_call_ms":          medianOpMax(spans, "redist", "dst") / 1e6,
		"redist.msgs_per_op":          perOp("redist.msgs_sent"),
		"redist.chunks_per_op":        perOp("redist.chunks_sent"),
		"redist.acks_per_op":          perOp("redist.acks_sent"),
		"redist.elems_packed_per_op":  perOp("redist.elems_packed"),
		"redist.self_ms_per_op":       msPerOp(float64(self["redist"])),
		"comm.remote_msgs_per_op":     perOp("comm.remote_msgs_forwarded"),
		"comm.local_msgs_per_op":      (dl("comm.msgs_sent") - dl("comm.remote_msgs_delivered")) / n,
		"session.send_ms_per_op":      msPerOp(clipSum(spans, win, "session", "send")),
		"session.recv_wait_ms_per_op": msPerOp(clipSum(spans, win, "session", "recv")),
		"session.frames_per_op":       float64(countInOps(spans, "session", "send")) / n,
		"session.acks_per_op":         perOp("session.acks_sent"),
		"session.self_ms_per_op":      msPerOp(float64(self["session"])),
		"session.replayed_frames":     dl("session.frames_replayed"),
		"session.reconnects":          dl("session.reconnects"),

		"transport.write_ms_per_op": msPerOp(clipSum(spans, win, "transport", "write")),
		"transport.read_ms_per_op":  msPerOp(clipSum(spans, win, "transport", "read")),
		"transport.bytes_per_op":    perOp("wire.bytes_written"),
		"transport.frames_per_op":   perOp("wire.frames_written"),
		"transport.self_ms_per_op":  msPerOp(float64(self["transport"])),

		"wire.bytes_copied_ratio":       ratio(copied, copied+vectored),
		"wire.overhead_ratio":           ratio(dl("wire.bytes_written"), float64(w.payloadBytes())*n),
		"wire.bytes_vectored_per_op":    vectored / n,
		"wire.data_bytes_copied_per_op": cpB / n,

		"bufpool.hit_ratio":               ratio(dl("bufpool.hits"), dl("bufpool.gets")),
		"bufpool.oversize_per_op":         perOp("bufpool.oversize"),
		"bufpool.outstanding_after_close": float64(outstanding),

		"prmi.collective_call_ms_p50":  medianDur(spans, "prmi", "collective") / 1e6,
		"prmi.independent_call_us_p50": medianDur(spans, "prmi", "independent") / 1e3,
		"prmi.dispatch_overhead_ms":    dispatchOverhead(spans) / 1e6,
		"prmi.self_ms_per_op":          msPerOp(float64(self["prmi"])),
		"prmi.retries":                 dl("prmi.retries"),
		"prmi.dedup_hits":              dl("prmi.dedup_hits"),

		"runtime.gc_cycles_per_op": float64(cyc1-cyc0) / n,
		"runtime.gc_cpu_fraction":  ratio(gc1-gc0, tot1-tot0),

		"trace.overhead_pct": (p50B - p50A) / p50A * 100,
		"trace.spans_per_op": float64(len(spans)) / n,
	}
	for name, v := range setupVals {
		vals[name] = median(v)
	}
	return vals, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanSum is the total duration of the layer's spans named name.
func spanSum(spans []span, layer, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Layer == layer && s.Name == name && s.End >= 0 {
			ns += s.End - s.Start
		}
	}
	return float64(ns)
}

// clipSum is the time the layer's spans named name spent inside ops.
func clipSum(spans []span, win opWindows, layer, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Layer == layer && s.Name == name && s.End >= 0 {
			ns += win.clip(s.Start, s.End)
		}
	}
	return float64(ns)
}

// countInOps counts the layer's spans named name begun inside an op.
func countInOps(spans []span, layer, name string) int {
	n := 0
	for _, s := range spans {
		if s.Layer == layer && s.Name == name && s.Op >= 0 {
			n++
		}
	}
	return n
}

// byOp groups the durations of the layer's spans named name by op.
func byOp(spans []span, layer, name string) map[int][]float64 {
	out := map[int][]float64{}
	for _, s := range spans {
		if s.Layer == layer && s.Name == name && s.Op >= 0 && s.End >= 0 {
			out[s.Op] = append(out[s.Op], float64(s.End-s.Start))
		}
	}
	return out
}

// medianOpMax is the median over ops of the slowest such span in the op:
// the rank that held the op up.
func medianOpMax(spans []span, layer, name string) float64 {
	var vals []float64
	for _, ds := range byOp(spans, layer, name) {
		sort.Float64s(ds)
		vals = append(vals, ds[len(ds)-1])
	}
	return median(vals)
}

func medianDur(spans []span, layer, name string) float64 {
	var vals []float64
	for _, ds := range byOp(spans, layer, name) {
		vals = append(vals, ds...)
	}
	return median(vals)
}

// dispatchOverhead is the median over ops of the mean collective call
// time minus the slowest callee's handler time: what PRMI itself costs
// around the benchmark's own handler.
func dispatchOverhead(spans []span) float64 {
	handlers := byOp(spans, "handler", "scale")
	var vals []float64
	for op, calls := range byOp(spans, "prmi", "collective") {
		hs := handlers[op]
		if len(hs) == 0 {
			continue
		}
		sort.Float64s(hs)
		var sum float64
		for _, c := range calls {
			sum += c
		}
		vals = append(vals, sum/float64(len(calls))-hs[len(hs)-1])
	}
	return median(vals)
}
