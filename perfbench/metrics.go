package main

// metricDef names one reported metric. For per-layer metrics, Moves and
// On record the interaction map: which end-to-end metrics a change in
// this layer metric should move, and on which workloads. A layer metric
// that reads 0 on a workload measures a layer that workload does not use.
type metricDef struct {
	Name  string `json:"name"`
	Unit  string `json:"unit"`
	Moves string `json:"moves,omitempty"`
	On    string `json:"on,omitempty"`
}

const (
	allWorkloads = "bulk-tcp, strided-colocated, prmi-tcp"
	overTCP      = "bulk-tcp, prmi-tcp"
	invariant    = "must be 0: a fault-free run recovers from nothing"
)

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "op_ms_p50", Unit: "ms"},
	{Name: "op_ms_p90", Unit: "ms"},
	{Name: "payload_mb_s", Unit: "MB/s"},
	{Name: "cpu_ms_per_op", Unit: "ms"},
	{Name: "alloc_mb_per_op", Unit: "MB"},
	{Name: "rss_peak_mb", Unit: "MB"},
}

var perLayer = []metricDef{
	{"dad.template_ms", "ms", "setup_s", allWorkloads},
	{"sidl.parse_ms", "ms", "setup_s", "prmi-tcp"},
	{"schedule.build_ms", "ms", "setup_s", allWorkloads},
	{"session.connect_ms", "ms", "setup_s", overTCP},
	{"schedule.pack_ms_per_op", "ms", "op_ms_p50, cpu_ms_per_op", "strided-colocated"},
	{"schedule.unpack_ms_per_op", "ms", "op_ms_p50, cpu_ms_per_op", "strided-colocated; op_ms_p50 on bulk-tcp"},

	{"redist.src_call_ms", "ms", "op_ms_p50", "bulk-tcp, strided-colocated"},
	{"redist.dst_call_ms", "ms", "op_ms_p50", "bulk-tcp, strided-colocated"},
	{"redist.msgs_per_op", "count", "op_ms_p50, cpu_ms_per_op", "strided-colocated"},
	{"redist.chunks_per_op", "count", "op_ms_p50, cpu_ms_per_op", "strided-colocated"},
	{"redist.acks_per_op", "count", "op_ms_p50, cpu_ms_per_op", "strided-colocated"},
	{"redist.elems_packed_per_op", "count", "op_ms_p50, cpu_ms_per_op", "strided-colocated"},
	{"redist.self_ms_per_op", "ms", "op_ms_p50, cpu_ms_per_op", "bulk-tcp, strided-colocated"},

	{"comm.remote_msgs_per_op", "count", "op_ms_p50", overTCP},
	{"comm.local_msgs_per_op", "count", "op_ms_p50", "strided-colocated"},

	{"session.send_ms_per_op", "ms", "op_ms_p50", "bulk-tcp"},
	{"session.recv_wait_ms_per_op", "ms", "op_ms_p50", "bulk-tcp"},
	{"session.frames_per_op", "count", "op_ms_p50", "prmi-tcp"},
	{"session.acks_per_op", "count", "op_ms_p50", "prmi-tcp"},
	{"session.self_ms_per_op", "ms", "op_ms_p50", overTCP},
	{"session.replayed_frames", "count", invariant, overTCP},
	{"session.reconnects", "count", invariant, overTCP},

	{"transport.write_ms_per_op", "ms", "op_ms_p50, cpu_ms_per_op", "bulk-tcp"},
	{"transport.read_ms_per_op", "ms", "op_ms_p50, cpu_ms_per_op", "bulk-tcp"},
	{"transport.bytes_per_op", "bytes", "payload_mb_s", overTCP},
	{"transport.frames_per_op", "count", "payload_mb_s", overTCP},
	{"transport.self_ms_per_op", "ms", "op_ms_p50, cpu_ms_per_op", "bulk-tcp"},

	{"wire.bytes_copied_ratio", "ratio", "alloc_mb_per_op", "bulk-tcp"},
	{"wire.overhead_ratio", "ratio", "payload_mb_s", "prmi-tcp"},
	{"wire.bytes_vectored_per_op", "bytes", "alloc_mb_per_op", "bulk-tcp"},
	{"wire.data_bytes_copied_per_op", "bytes", "alloc_mb_per_op, cpu_ms_per_op", overTCP},

	{"bufpool.hit_ratio", "ratio", "alloc_mb_per_op, rss_peak_mb", "bulk-tcp"},
	{"bufpool.oversize_per_op", "count", "alloc_mb_per_op, rss_peak_mb", "bulk-tcp"},
	{"bufpool.outstanding_after_close", "count", "must be 0: every pooled buffer returns at teardown", allWorkloads},

	{"prmi.collective_call_ms_p50", "ms", "op_ms_p50", "prmi-tcp"},
	{"prmi.independent_call_us_p50", "us", "op_ms_p50", "prmi-tcp"},
	{"prmi.dispatch_overhead_ms", "ms", "op_ms_p50", "prmi-tcp"},
	{"prmi.self_ms_per_op", "ms", "op_ms_p50", "prmi-tcp"},
	{"prmi.retries", "count", invariant, "prmi-tcp"},
	{"prmi.dedup_hits", "count", invariant, "prmi-tcp"},

	{"runtime.gc_cycles_per_op", "count", "cpu_ms_per_op, op_ms_p90", overTCP},
	{"runtime.gc_cpu_fraction", "ratio", "cpu_ms_per_op, op_ms_p90", overTCP},

	{"trace.overhead_pct", "%", "none: traced minus untraced op_ms_p50, as a share of untraced", allWorkloads},
	{"trace.spans_per_op", "count", "none: how much the traced run records", allWorkloads},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches each metric's unit from defs, in defs' order.
func withUnits(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}
