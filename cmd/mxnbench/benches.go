package main

import (
	"fmt"
	"sync"
	"time"

	"mxn"
	"mxn/internal/dad"
	"mxn/internal/dapkg"
	"mxn/internal/intercomm"
	"mxn/internal/linear"
	"mxn/internal/mct"
	"mxn/internal/meshsim"
	"mxn/internal/pipeline"
	"mxn/internal/prmi"
	"mxn/internal/redist"
	"mxn/internal/schedule"
)

// timed measures fn averaged over iters runs.
func timed(iters int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(iters)
}

// runB1: schedule build cost as M and N grow, block↔block (aligned
// boundaries, few messages) vs block↔cyclic (worst-case fragmentation).
func runB1() error {
	const n = 1 << 16
	t := &table{header: []string{"M", "N", "pair", "messages", "runs", "blocks", "build time"}}
	for _, mn := range [][2]int{{2, 2}, {4, 8}, {8, 16}, {16, 32}, {32, 64}} {
		m, nn := mn[0], mn[1]
		for _, pair := range []struct {
			name     string
			src, dst dad.AxisDist
		}{
			{"block→block", dad.BlockAxis(m), dad.BlockAxis(nn)},
			{"block→cyclic", dad.BlockAxis(m), dad.CyclicAxis(nn)},
		} {
			src, err := dad.NewTemplate([]int{n}, []dad.AxisDist{pair.src})
			if err != nil {
				return err
			}
			dst, err := dad.NewTemplate([]int{n}, []dad.AxisDist{pair.dst})
			if err != nil {
				return err
			}
			var s *schedule.Schedule
			d := timed(3, func() {
				s, err = schedule.Build(src, dst)
			})
			if err != nil {
				return err
			}
			runs, blocks := 0, 0
			for _, p := range s.Pairs {
				runs += len(p.Runs)
				for _, r := range p.Runs {
					blocks += r.Blocks()
				}
			}
			t.add(fmt.Sprint(m), fmt.Sprint(nn), pair.name, fmt.Sprint(s.NumMessages()),
				fmt.Sprint(runs), fmt.Sprint(blocks), d.Round(time.Microsecond).String())
		}
	}
	t.print()
	fmt.Println("shape check: block→cyclic fragments into ~element-granular blocks, but each pair's blocks are one")
	fmt.Println("strided run, so build cost tracks the message count, not the fragmentation;")
	fmt.Println("creation is per-pair and never serialized through a coordinator.")
	return nil
}

// runB2: the paper's schedule-reuse claim — the first transfer pays the
// build, subsequent transfers (and other conforming arrays) reuse it.
func runB2() error {
	const n = 1 << 18
	src, _ := dad.NewTemplate([]int{n}, []dad.AxisDist{dad.BlockAxis(8)})
	dst, _ := dad.NewTemplate([]int{n}, []dad.AxisDist{dad.BlockCyclicAxis(8, 64)})
	cache := schedule.NewCache()

	srcLocals := make([][]float64, 8)
	dstLocals := make([][]float64, 8)
	for r := 0; r < 8; r++ {
		srcLocals[r] = make([]float64, src.LocalCount(r))
		dstLocals[r] = make([]float64, dst.LocalCount(r))
	}

	first := timed(1, func() {
		s, _ := cache.Get(src, dst)
		redist.ExecuteLocal(s, srcLocals, dstLocals)
	})
	steady := timed(20, func() {
		s, _ := cache.Get(src, dst)
		redist.ExecuteLocal(s, srcLocals, dstLocals)
	})
	// A different array conforming to the same templates also hits.
	other := make([][]float64, 8)
	for r := range other {
		other[r] = make([]float64, src.LocalCount(r))
	}
	conforming := timed(20, func() {
		s, _ := cache.Get(src, dst)
		redist.ExecuteLocal(s, other, dstLocals)
	})
	hits, misses := cache.Stats()

	t := &table{header: []string{"transfer", "per transfer", "note"}}
	t.add("first (build + move)", first.Round(time.Microsecond).String(), "pays schedule construction")
	t.add("steady state (cached)", steady.Round(time.Microsecond).String(), "pure pack/move/unpack")
	t.add("different conforming array", conforming.Round(time.Microsecond).String(), "same schedule reused across arrays")
	t.add("cache stats", fmt.Sprintf("%d hits / %d misses", hits, misses), "one build total")
	t.print()
	return nil
}

// runB3: descriptor generality — the cost of building and executing
// schedules across the DAD's distribution kinds, for the same index
// space and rank counts.
func runB3() error {
	const n = 1 << 15
	const np = 8
	genSizes := make([]int, np)
	left := n
	for i := 0; i < np-1; i++ {
		genSizes[i] = n / np / 2 * (1 + i%3)
		left -= genSizes[i]
	}
	genSizes[np-1] = left
	owners := make([]int, n)
	for i := range owners {
		owners[i] = (i / 37) % np
	}
	patches := make([]dad.Patch, np)
	for r := 0; r < np; r++ {
		patches[r] = dad.NewPatch([]int{r * n / np}, []int{(r + 1) * n / np}, r)
	}
	explicitT, err := dad.NewExplicitTemplate([]int{n}, np, patches)
	if err != nil {
		return err
	}
	dst, _ := dad.NewTemplate([]int{n}, []dad.AxisDist{dad.BlockAxis(np)})

	kinds := []struct {
		name string
		tpl  *dad.Template
	}{
		{"block", mustTpl(n, dad.BlockAxis(np))},
		{"cyclic", mustTpl(n, dad.CyclicAxis(np))},
		{"block-cyclic(64)", mustTpl(n, dad.BlockCyclicAxis(np, 64))},
		{"generalized block", mustTpl(n, dad.GenBlockAxis(genSizes))},
		{"implicit (per-index)", mustTpl(n, dad.ImplicitAxis(np, owners))},
		{"explicit patches", explicitT},
	}
	t := &table{header: []string{"source distribution", "descriptor bytes", "build", "messages", "transfer"}}
	for _, k := range kinds {
		var s *schedule.Schedule
		build := timed(3, func() { s, err = schedule.Build(k.tpl, dst) })
		if err != nil {
			return err
		}
		srcLocals := make([][]float64, np)
		dstLocals := make([][]float64, np)
		for r := 0; r < np; r++ {
			srcLocals[r] = make([]float64, k.tpl.LocalCount(r))
			dstLocals[r] = make([]float64, dst.LocalCount(r))
		}
		xfer := timed(10, func() { redist.ExecuteLocal(s, srcLocals, dstLocals) })
		t.add(k.name, fmt.Sprint(intercomm.DescriptorFootprint(k.tpl)),
			build.Round(time.Microsecond).String(), fmt.Sprint(s.NumMessages()),
			xfer.Round(time.Microsecond).String())
	}
	t.print()
	fmt.Println("shape check: compact structured descriptors (block family) cost least; the structureless")
	fmt.Println("implicit/explicit forms buy full generality with bigger descriptors and costlier planning —")
	fmt.Println("the paper's case for using the most compact descriptor appropriate to a distribution.")
	return nil
}

func mustTpl(n int, ax dad.AxisDist) *dad.Template {
	t, err := dad.NewTemplate([]int{n}, []dad.AxisDist{ax})
	if err != nil {
		panic(err)
	}
	return t
}

// runB4: linearization with receiver-driven requests (no schedule) versus
// DAD schedules, one-shot and repeated.
func runB4() error {
	const n = 1 << 15
	const m, nn = 4, 6
	src := mustTpl(n, dad.BlockAxis(m))
	dst := mustTpl(n, dad.CyclicAxis(nn))
	srcLin := linear.NewRowMajor(src)
	dstLin := linear.NewRowMajor(dst)

	runDAD := func(withBuild bool, iters int) time.Duration {
		cache := schedule.NewCache()
		if !withBuild {
			cache.Get(src, dst) // warm
		}
		return timed(iters, func() {
			s, _ := cache.Get(src, dst)
			var wg sync.WaitGroup
			world := mxn.NewWorld(m + nn)
			for i, c := range world.Comms() {
				wg.Add(1)
				go func(i int, c *mxn.Comm) {
					defer wg.Done()
					lay := redist.Layout{SrcBase: 0, DstBase: m}
					var sl, dl []float64
					if i < m {
						sl = make([]float64, src.LocalCount(i))
					} else {
						dl = make([]float64, dst.LocalCount(i-m))
					}
					if err := redist.Exchange(c, s, lay, sl, dl, 0); err != nil {
						panic(err)
					}
				}(i, c)
			}
			wg.Wait()
		})
	}
	runLinear := func(iters int) time.Duration {
		return timed(iters, func() {
			var wg sync.WaitGroup
			world := mxn.NewWorld(m + nn)
			for i, c := range world.Comms() {
				wg.Add(1)
				go func(i int, c *mxn.Comm) {
					defer wg.Done()
					lay := redist.Layout{SrcBase: 0, DstBase: m}
					var sl, dl []float64
					if i < m {
						sl = make([]float64, src.LocalCount(i))
					} else {
						dl = make([]float64, dst.LocalCount(i-m))
					}
					if err := redist.LinearExchange(c, srcLin, dstLin, lay, m, nn, sl, dl, 0); err != nil {
						panic(err)
					}
				}(i, c)
			}
			wg.Wait()
		})
	}

	t := &table{header: []string{"approach", "first transfer", "steady state", "per-transfer traffic"}}
	t.add("DAD schedule", runDAD(true, 1).Round(time.Microsecond).String(),
		runDAD(false, 5).Round(time.Microsecond).String(), "data only (plan precomputed)")
	t.add("linearization (receiver-driven)", runLinear(1).Round(time.Microsecond).String(),
		runLinear(5).Round(time.Microsecond).String(), fmt.Sprintf("%d requests + interval sets each transfer", m*nn))
	t.print()
	fmt.Println("shape check: linearization avoids schedule construction (competitive first transfer) but")
	fmt.Println("pays request traffic and per-element mapping every time; schedules win once reused.")
	return nil
}

// runB5: PRMI invocation costs — independent vs collective vs one-way,
// M=N vs M≠N ghosts, and the simple-argument consistency check the paper
// says frameworks may skip for performance.
func runB5() error {
	t := &table{header: []string{"invocation", "M", "N", "per call"}}
	ind, err := prmiCost(1, 1, "independent", false)
	if err != nil {
		return err
	}
	t.add("independent", "1", "1", ind.String())
	for _, mn := range [][2]int{{2, 2}, {4, 4}, {8, 8}, {8, 2}, {2, 8}} {
		d, err := prmiCost(mn[0], mn[1], "collective", false)
		if err != nil {
			return err
		}
		t.add("collective", fmt.Sprint(mn[0]), fmt.Sprint(mn[1]), d.String())
	}
	ow, err := prmiCost(4, 4, "oneway", false)
	if err != nil {
		return err
	}
	t.add("collective one-way", "4", "4", ow.String())
	chk, err := prmiCost(4, 4, "collective", true)
	if err != nil {
		return err
	}
	t.add("collective + simple-arg check", "4", "4", chk.String())
	t.print()
	fmt.Println("shape check: collective cost grows with M×N headers; ghosts (M≠N) cost like max(M,N);")
	fmt.Println("one-way returns immediately; the consistency check adds measurable but small overhead —")
	fmt.Println("the reason the paper leaves it optional.")
	return nil
}

func prmiCost(m, n int, kind string, checkSimple bool) (time.Duration, error) {
	idl := `package p; interface I {
		independent double f(in double x);
		collective double g(in double x);
		collective oneway void h(in double x);
	}`
	pkg, err := mxn.ParseSIDL(idl)
	if err != nil {
		return 0, err
	}
	iface, _ := pkg.Interface("I")
	const calls = 300
	w := mxn.NewWorld(m + n)
	all := w.Comms()
	ranks := make([]int, m)
	for i := range ranks {
		ranks[i] = i
	}
	cohort := w.Group(ranks)
	var wg sync.WaitGroup
	serveErrs := make([]error, n)
	for j := 0; j < n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			ep := prmi.NewEndpoint(iface, prmi.NewCommLink(all[m+j], 0, 0), j, n, m)
			ep.CheckSimpleArgs = checkSimple
			h := func(in *prmi.Incoming, out *prmi.Outgoing) error {
				out.Return = 1.0
				return nil
			}
			ep.Handle("f", h)
			ep.Handle("g", h)
			ep.Handle("h", func(in *prmi.Incoming, out *prmi.Outgoing) error { return nil })
			serveErrs[j] = ep.Serve()
		}(j)
	}
	perCall := make([]time.Duration, m)
	callErrs := make([]error, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := prmi.NewCallerPort(iface, prmi.NewCommLink(all[i], m, 0), i, n, prmi.BarrierDelayed)
			start := time.Now()
			for k := 0; k < calls; k++ {
				var err error
				switch kind {
				case "independent":
					_, err = p.CallIndependent(i%n, "f", prmi.Simple("x", 1.0))
				case "collective":
					_, err = p.CallCollective("g", prmi.FullParticipation(cohort[i]), prmi.Simple("x", 1.0))
				case "oneway":
					_, err = p.CallCollective("h", prmi.FullParticipation(cohort[i]), prmi.Simple("x", 1.0))
				}
				if err != nil {
					callErrs[i] = err
					break
				}
			}
			perCall[i] = time.Since(start) / calls
			// One-way calls return before handlers run; order a final
			// blocking call so Close cannot outrun them.
			if kind == "oneway" {
				p.CallCollective("g", prmi.FullParticipation(cohort[i]), prmi.Simple("x", 1.0))
			}
			p.Close()
		}(i)
	}
	wg.Wait()
	for _, err := range append(serveErrs, callErrs...) {
		if err != nil {
			return 0, err
		}
	}
	var maxD time.Duration
	for _, d := range perCall {
		if d > maxD {
			maxD = d
		}
	}
	return maxD.Round(time.Microsecond), nil
}

// runB6: the DAD's 2N-vs-N² converter economics, plus the runtime cost of
// converting through the hub versus a fused pairwise converter.
func runB6() error {
	tpl, _ := dad.NewTemplate([]int{512, 512}, []dad.AxisDist{dad.BlockAxis(1), dad.CollapsedAxis()})
	t := &table{header: []string{"packages", "hub converters", "pairwise converters", "hub ns/elem", "direct ns/elem"}}
	for _, n := range []int{2, 3, 4, 6} {
		pkgs := dapkg.Builtin(n)
		src, dst := pkgs[0], pkgs[n-1]
		cs, err := dapkg.NewConverter(src, tpl, 0)
		if err != nil {
			return err
		}
		cd, err := dapkg.NewConverter(dst, tpl, 0)
		if err != nil {
			return err
		}
		direct, err := dapkg.NewDirectConverter(src, dst, tpl, 0)
		if err != nil {
			return err
		}
		elems := cs.Len()
		in := make([]float64, elems)
		out := make([]float64, elems)
		scratch := make([]float64, elems)
		hubD := timed(5, func() { dapkg.ViaHub(cs, cd, in, scratch, out) })
		dirD := timed(5, func() { direct.Convert(in, out) })
		t.add(fmt.Sprint(n),
			fmt.Sprint(dapkg.HubConverterCount(n)),
			fmt.Sprint(dapkg.PairwiseConverterCount(n)),
			fmt.Sprintf("%.2f", float64(hubD.Nanoseconds())/float64(elems)),
			fmt.Sprintf("%.2f", float64(dirD.Nanoseconds())/float64(elems)))
	}
	t.print()
	fmt.Println("shape check: the hub pays ~2× per conversion (one extra relayout) but its converter count")
	fmt.Println("grows as 2N while pairwise grows as N², crossing over at N=4 — the paper's DAD argument.")
	return nil
}

// runB7: MCT interpolation as parallel sparse matvec: fine→coarse regrid
// on 8 ranks, single- vs multi-field.
func runB7() error {
	const np = 8
	const nlatS, nlonS, nlatD, nlonD = 144, 96, 96, 64
	global := meshsim.RegridMatrix(nlatS, nlonS, nlatD, nlonD)
	xMap := mct.BlockMap(nlatS*nlonS, np)
	yMap := mct.BlockMap(nlatD*nlonD, np)

	t := &table{header: []string{"fields", "nnz", "per apply", "element-updates/s"}}
	for _, fields := range []int{1, 4} {
		attrs := make([]string, fields)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("f%d", i)
		}
		var per time.Duration
		var failErr error
		var mu sync.Mutex
		mxn.Run(np, func(c *mxn.Comm) {
			r := c.Rank()
			mv, err := mct.NewMatVec(c, meshsim.LocalMatrix(global, yMap, r), xMap, yMap, 0)
			if err != nil {
				mu.Lock()
				failErr = err
				mu.Unlock()
				return
			}
			x := mct.MustAttrVect(attrs, xMap.LocalSize(r))
			y := mct.MustAttrVect(attrs, yMap.LocalSize(r))
			const iters = 10
			c.Barrier()
			start := time.Now()
			for k := 0; k < iters; k++ {
				if err := mv.Apply(c, x, y, 10); err != nil {
					mu.Lock()
					failErr = err
					mu.Unlock()
					return
				}
			}
			elapsed := time.Since(start) / iters
			if r == 0 {
				mu.Lock()
				per = elapsed
				mu.Unlock()
			}
		})
		if failErr != nil {
			return failErr
		}
		updates := float64(global.NNZ()*fields) / per.Seconds()
		t.add(fmt.Sprint(fields), fmt.Sprint(global.NNZ()),
			per.Round(time.Microsecond).String(), fmt.Sprintf("%.1fM", updates/1e6))
	}
	t.print()
	fmt.Println("shape check: interpolating 4 fields in one apply costs far less than 4× one field —")
	fmt.Println("the halo exchange is shared, which is MCT's multi-field cache-friendly design.")
	return nil
}

// runB8: persistent-channel throughput versus frame size.
func runB8() error {
	t := &table{header: []string{"frame elements", "frames", "per frame", "throughput"}}
	for _, side := range []int{16, 64, 256} {
		elems := side * side
		srcT, _ := dad.NewTemplate([]int{side, side}, []dad.AxisDist{dad.BlockAxis(2), dad.CollapsedAxis()})
		dstT, _ := dad.NewTemplate([]int{side, side}, []dad.AxisDist{dad.CollapsedAxis(), dad.BlockAxis(2)})
		srcD, _ := dad.NewDescriptor("f", dad.Float64, dad.ReadOnly, srcT)
		dstD, _ := dad.NewDescriptor("f", dad.Float64, dad.WriteOnly, dstT)
		ba, bb := mxn.BridgePair()
		hubA := mxn.NewHub("A", 2, ba)
		hubB := mxn.NewHub("B", 2, bb)
		hubA.Register(srcD)
		hubB.Register(dstD)
		srcConn, dstConn, err := mxn.ConnectHubs("b8", hubA, "f", hubB, "f",
			mxn.ConnOpts{Persistent: true, Sync: mxn.SyncEachFrame})
		if err != nil {
			return err
		}
		const frames = 300
		start := time.Now()
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				local := make([]float64, srcT.LocalCount(r))
				for f := 0; f < frames; f++ {
					srcConn.DataReady(r, local)
				}
			}(r)
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				buf := make([]float64, dstT.LocalCount(r))
				for f := 0; f < frames; f++ {
					dstConn.DataReady(r, buf)
				}
			}(r)
		}
		wg.Wait()
		elapsed := time.Since(start)
		mb := float64(elems*8*frames) / 1e6
		t.add(fmt.Sprint(elems), fmt.Sprint(frames),
			(elapsed / frames).Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f MB/s", mb/elapsed.Seconds()))
	}
	t.print()
	fmt.Println("shape check: per-frame cost is dominated by fixed matching overhead for small frames and")
	fmt.Println("by copying for large ones, so throughput rises steeply with frame size.")
	return nil
}

// runB9: what InterComm's separation of control from data costs — a
// coordinated, timestamp-matched transfer versus the same redistribution
// executed directly.
func runB9() error {
	const n = 1 << 14
	const m, nn = 2, 3
	srcT := mustTpl(n, dad.BlockAxis(m))
	dstT := mustTpl(n, dad.BlockAxis(nn))

	// Direct: cached schedule + local execution.
	s, err := schedule.Build(srcT, dstT)
	if err != nil {
		return err
	}
	srcLocals := make([][]float64, m)
	for r := range srcLocals {
		srcLocals[r] = make([]float64, srcT.LocalCount(r))
	}
	dstLocals := make([][]float64, nn)
	for r := range dstLocals {
		dstLocals[r] = make([]float64, dstT.LocalCount(r))
	}
	direct := timed(50, func() { redist.ExecuteLocal(s, srcLocals, dstLocals) })

	// Coordinated: export with timestamps, rule-matched import.
	coord := intercomm.NewCoordinator()
	coord.Retention = 4
	sim := coord.AddProgram("sim")
	viz := coord.AddProgram("viz")
	sim.DeclareArray("a", srcT)
	viz.DeclareArray("a", dstT)
	if err := coord.AddRule(intercomm.Rule{
		SrcProgram: "sim", SrcArray: "a", DstProgram: "viz", DstArray: "a",
		Match: intercomm.LowerBound,
	}); err != nil {
		return err
	}
	ts := 0
	coordinated := timed(50, func() {
		for r := 0; r < m; r++ {
			if err := sim.Export("a", ts, r, srcLocals[r]); err != nil {
				panic(err)
			}
		}
		for r := 0; r < nn; r++ {
			if _, err := viz.Import("a", ts, r, dstLocals[r]); err != nil {
				panic(err)
			}
		}
		ts++
	})

	t := &table{header: []string{"path", "per transfer", "what it buys"}}
	t.add("direct schedule execution", direct.Round(time.Microsecond).String(), "fastest; both sides must know each other")
	t.add("coordinated import/export", coordinated.Round(time.Microsecond).String(),
		"timestamp matching, third-party control, replaceable components")
	t.print()
	fmt.Println("shape check: coordination costs a constant per transfer (buffer copy + rule match) on top of")
	fmt.Println("the same redistribution — the price of separating when from what.")
	return nil
}

// runB10: the Section 6 "super-component" ablation — a pipeline of
// redistributions and unit-conversion filters executed chained
// (materializing every stage) versus fused (composed schedule, one
// movement, one filter pass).
func runB10() error {
	const n = 1 << 16
	src := mustTpl(n, dad.BlockAxis(6))
	mid := mustTpl(n, dad.CyclicAxis(4))
	sink := mustTpl(n, dad.BlockAxis(2))
	p, err := pipeline.New(src,
		pipeline.Stage{Template: mid, Filter: func(x float64) float64 { return x - 273.15 }},
		pipeline.Stage{Template: sink, Filter: func(x float64) float64 { return x / 100 }},
	)
	if err != nil {
		return err
	}
	in := make([][]float64, src.NumProcs())
	for r := range in {
		in[r] = make([]float64, src.LocalCount(r))
	}
	// Warm both paths so the table compares steady-state movement.
	if _, err := p.RunChained(in); err != nil {
		return err
	}
	fused, _, err := p.Fuse()
	if err != nil {
		return err
	}
	chained := timed(20, func() { p.RunChained(in) })
	fusedT := timed(20, func() { p.RunFused(in) })

	// Message counts for the two plans.
	s1, _ := schedule.Build(src, mid)
	s2, _ := schedule.Build(mid, sink)

	t := &table{header: []string{"execution", "per run", "messages", "intermediate copies"}}
	t.add("chained (per-stage)", chained.Round(time.Microsecond).String(),
		fmt.Sprintf("%d + %d", s1.NumMessages(), s2.NumMessages()), "1 per stage")
	t.add("fused (super-component)", fusedT.Round(time.Microsecond).String(),
		fmt.Sprint(fused.NumMessages()), "none")
	t.print()
	fmt.Println("shape check: fusion removes the intermediate materialization and its messages — the")
	fmt.Println("\"operate on data in place and avoid unnecessary data copies\" goal of the paper's Section 6.")
	return nil
}

// runB11: the Section 3 scalability claim — "communications between the
// components is not serialized through a single data management process"
// — tested by weak scaling: per-rank data volume fixed, M=N grows, and
// the wall-clock per transfer should stay near-flat rather than grow
// linearly the way a funnel-through-one-process design would.
func runB11() error {
	const perRank = 1 << 14 // elements owned by each rank on each side
	t := &table{header: []string{"M=N", "global elements", "messages", "per transfer", "per-rank rate"}}
	for _, np := range []int{2, 4, 8, 16} {
		n := perRank * np
		src := mustTpl(n, dad.BlockAxis(np))
		dst := mustTpl(n, dad.BlockCyclicAxis(np, 512))
		s, err := schedule.Build(src, dst)
		if err != nil {
			return err
		}
		srcLocals := make([][]float64, np)
		dstLocals := make([][]float64, np)
		for r := 0; r < np; r++ {
			srcLocals[r] = make([]float64, src.LocalCount(r))
			dstLocals[r] = make([]float64, dst.LocalCount(r))
		}
		per := timed(5, func() {
			var wg sync.WaitGroup
			world := mxn.NewWorld(2 * np)
			for i, c := range world.Comms() {
				wg.Add(1)
				go func(i int, c *mxn.Comm) {
					defer wg.Done()
					lay := redist.Layout{SrcBase: 0, DstBase: np}
					var sl, dl []float64
					if i < np {
						sl = srcLocals[i]
					} else {
						dl = dstLocals[i-np]
					}
					if err := redist.Exchange(c, s, lay, sl, dl, 0); err != nil {
						panic(err)
					}
				}(i, c)
			}
			wg.Wait()
		})
		rate := float64(perRank*8) / 1e6 / per.Seconds()
		t.add(fmt.Sprint(np), fmt.Sprint(n), fmt.Sprint(s.NumMessages()),
			per.Round(time.Microsecond).String(), fmt.Sprintf("%.1f MB/s", rate))
	}
	t.print()
	fmt.Println("shape check: with fixed per-rank volume, transfer time grows far slower than total data")
	fmt.Println("volume (8× ranks costs well under 8×): pairwise messages proceed concurrently with no")
	fmt.Println("serializing coordinator; residual growth is message count and CPU oversubscription.")
	return nil
}
