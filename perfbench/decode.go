package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asr"
	"repro/internal/bench"
	"repro/internal/decoder"
	"repro/internal/dnn"
	"repro/internal/speech"
	"repro/internal/wer"
	"repro/internal/wfst"
)

// Corpus sizes: large enough that one window rarely wraps, and that a
// run's latency tail is a property of the profile mix rather than of
// a few long utterances a particular seed happened to draw.
const (
	denseCorpusUtts  = 2000
	prunedCorpusUtts = 4000
	// prefixUtts is the corpus prefix every run decodes in full: the
	// output checks (pinned digests, WER ceiling) and the deterministic
	// search-work counts are taken over it.
	prefixUtts = 64
	// spansPerWorker caps each worker's span buffer in one traced window.
	spansPerWorker = 1 << 18
)

// decodeEnv is a set-up decode workload: one model compiled to a plan,
// one decode graph, one corpus.
type decodeEnv struct {
	name   string
	scale  asr.Scale
	net    *dnn.Network
	plan   *dnn.Plan
	dec    *decoder.Decoder
	dcfg   decoder.Config
	corpus *bench.Corpus
}

func setupDecodeDense(o options, st map[string]float64) (runner, error) {
	return setupDecode(o, st, "decode-dense", asr.ScaleSmall(), fixtureSmallDense, dnn.BackendDense, denseCorpusUtts)
}

func setupDecodePruned(o options, st map[string]float64) (runner, error) {
	return setupDecode(o, st, "decode-pruned", asr.ScaleTiny(), fixtureTinyP90, dnn.BackendAuto, prunedCorpusUtts)
}

// setupDecode loads and compiles the fixture model, compiles the
// scale's decode graph and generates the seed's corpus — the same
// steps, in the same modules, as asrserve's start-up plus the client's
// input generation.
func setupDecode(o options, st map[string]float64, name string, scale asr.Scale, fixture string, backend dnn.Backend, utts int) (*decodeEnv, error) {
	e, err := loadDecodeEnv(o.fixtures, name, scale, fixture, backend, st)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	e.corpus, err = bench.Generate(bench.SpecFor(scale, utts, o.seed))
	if err != nil {
		return nil, err
	}
	st["bench.corpus_ms"] = msSince(t)
	return e, nil
}

// loadDecodeEnv is setupDecode without the corpus.
func loadDecodeEnv(fixtures, name string, scale asr.Scale, fixture string, backend dnn.Backend, st map[string]float64) (*decodeEnv, error) {
	path, err := fixturePath(fixtures, fixture)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	net, err := dnn.LoadFile(path)
	if err != nil {
		return nil, err
	}
	net.SetPlanConfig(dnn.PlanConfig{Backend: backend})
	plan := net.Plan()
	st["dnn.load_compile_ms"] = msSince(t)

	t = time.Now()
	world, err := speech.NewWorld(scale.World)
	if err != nil {
		return nil, err
	}
	if plan.OutDim() != world.NumSenones() {
		return nil, fmt.Errorf("fixture %s has %d outputs, the %s world %d senones", fixture, plan.OutDim(), scale.Name, world.NumSenones())
	}
	dec := decoder.New(wfst.Compile(world))
	st["wfst.compile_ms"] = msSince(t)

	store, err := asr.StoreFactoryFor(scale, "unbounded", 0)
	if err != nil {
		return nil, err
	}
	return &decodeEnv{
		name: name, scale: scale, net: net, plan: plan, dec: dec,
		dcfg: decoder.Config{Beam: asr.DefaultBeam, AcousticScale: 1, NewStore: store},
	}, nil
}

func (e *decodeEnv) close() error { return nil }

// outcome is one decoded utterance, reduced to what the checks need.
type outcome struct {
	u      int
	digest uint64
	words  []int
	stats  decoder.Stats
}

// digestResult fingerprints a transcript: the OK flag, the cost bits
// and the words. Any pure speed change leaves it unchanged (dense,
// sparse and bsr kernels are bit-identical by contract).
func digestResult(ok bool, cost float64, words []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	if ok {
		put(1)
	} else {
		put(0)
	}
	put(math.Float64bits(cost))
	put(uint64(len(words)))
	for _, w := range words {
		put(uint64(w))
	}
	return h.Sum64()
}

// windowStats is the outcome of one timed window.
type windowStats struct {
	utts, frames int64
	wall         time.Duration
	cpu          time.Duration // benchmark process CPU over the window
	latMS        []float64     // per utterance, first frame -> final result
	latEnd       []time.Time   // when each latMS sample's utterance completed
	finishUS     []float64     // per utterance, the Finish call
	outcomes     []outcome
	errs         []string
	tracers      []*tracer
}

func (w *windowStats) framesPerS() float64 { return float64(w.frames) / w.wall.Seconds() }

// p99Block is how many utterances, in the order they completed, each
// op_p99_ms sample is taken over: the highest rank with ten samples
// beyond it in a block is its p99.
const p99Block = 1000

// blockP99 is op_p99_ms: the median, over consecutive blocks of
// p99Block utterances in completion order, of each block's p99 (a
// short last block joins the one before it, so a run of fewer than
// 2*p99Block utterances is one block). Both are nearest-rank, so the
// value was observed. Pooled over a whole run, a burst of interference
// from the shared host covering 1% of it sets the p99 on its own; the
// block median moves only if the burst reaches most blocks.
func blockP99(latMS []float64, ends []time.Time) float64 {
	order := make([]int, len(latMS))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ends[order[a]].Before(ends[order[b]]) })
	var p99s []float64
	for lo := 0; lo < len(order); {
		hi := lo + p99Block
		if len(order)-hi < p99Block {
			hi = len(order)
		}
		block := make([]float64, 0, hi-lo)
		for _, i := range order[lo:hi] {
			block = append(block, latMS[i])
		}
		p99s = append(p99s, nearestRank(block, 0.99))
		lo = hi
	}
	return nearestRank(p99s, 0.50)
}

// window decodes corpus utterances (from index *next on, wrapping)
// with o.sessions workers until dur has passed, each worker owning one
// Exec and one pooled Session — the calls the server's batcher and
// connection loop make. With trace set, spans go into per-worker
// buffers and the window also ends when one fills.
func (e *decodeEnv) window(sessions int, dur time.Duration, next *atomic.Int64, trace bool) *windowStats {
	ws := &windowStats{}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	t0 := time.Now()
	cpu0 := selfCPU()
	for w := 0; w < sessions; w++ {
		var tr *tracer
		if trace {
			tr = newTracer(t0, spansPerWorker)
			ws.tracers = append(ws.tracers, tr)
		}
		wg.Add(1)
		go func(tr *tracer) {
			defer wg.Done()
			ex := e.plan.NewExec()
			scores := make([]float64, e.plan.OutDim())
			var (
				sp             splicer
				ses            *decoder.Session
				lat, fin       []float64
				ends           []time.Time
				outs           []outcome
				errs           []string
				nUtts, nFrames int64
				n              = len(e.corpus.Utts)
			)
			for !stop.Load() && time.Since(t0) < dur {
				i := int(next.Add(1) - 1)
				u := i % n
				frames := sp.splice(e.corpus, u)
				if tr != nil && !tr.room(2*len(frames)+2) {
					stop.Store(true)
					break
				}
				var root int32
				start := time.Now()
				if tr != nil {
					root = tr.open(spanOp, -1, u)
				}
				if ses == nil {
					ses = e.dec.Start(e.dcfg)
				} else if err := ses.Restart(e.dcfg); err != nil {
					errs = append(errs, err.Error())
					if tr != nil {
						tr.close(root)
					}
					continue
				}
				var pushErr error
				for _, f := range frames {
					if tr == nil {
						ex.LogPosteriors(scores, f)
						pushErr = ses.PushFrame(scores)
					} else {
						a := tr.now()
						ex.LogPosteriors(scores, f)
						b := tr.now()
						pushErr = ses.PushFrame(scores)
						c := tr.now()
						tr.add(spanDNN, a, b, root, u)
						tr.add(spanDecoder, b, c, root, u)
					}
					if pushErr != nil {
						break
					}
				}
				fs := time.Now()
				var fsp int32
				if tr != nil {
					fsp = tr.open(spanFinish, root, u)
				}
				res := ses.Finish()
				end := time.Now()
				if tr != nil {
					tr.close(fsp)
					tr.close(root)
				}
				if pushErr != nil {
					errs = append(errs, fmt.Sprintf("utterance %d: %v", u, pushErr))
					continue
				}
				nUtts++
				nFrames += int64(len(frames))
				lat = append(lat, float64(end.Sub(start).Nanoseconds())/1e6)
				ends = append(ends, end)
				fin = append(fin, float64(end.Sub(fs).Nanoseconds())/1e3)
				outs = append(outs, outcome{u: u, digest: digestResult(res.OK, res.Cost, res.Words), words: res.Words, stats: res.Stats})
			}
			mu.Lock()
			ws.utts += nUtts
			ws.frames += nFrames
			ws.latMS = append(ws.latMS, lat...)
			ws.latEnd = append(ws.latEnd, ends...)
			ws.finishUS = append(ws.finishUS, fin...)
			ws.outcomes = append(ws.outcomes, outs...)
			ws.errs = append(ws.errs, errs...)
			mu.Unlock()
		}(tr)
	}
	wg.Wait()
	ws.wall = time.Since(t0)
	ws.cpu = selfCPU() - cpu0
	return ws
}

// decodeUtt decodes utterance u on a fresh session and exec — the
// reference path the checks fill gaps with.
func (e *decodeEnv) decodeUtt(u int) (outcome, error) {
	ex := e.plan.NewExec()
	scores := make([]float64, e.plan.OutDim())
	ses := e.dec.Start(e.dcfg)
	for _, f := range e.corpus.Spliced(u) {
		ex.LogPosteriors(scores, f)
		if err := ses.PushFrame(scores); err != nil {
			return outcome{}, err
		}
	}
	res := ses.Finish()
	return outcome{u: u, digest: digestResult(res.OK, res.Cost, res.Words), words: res.Words, stats: res.Stats}, nil
}

// firstOutcomes merges the outcomes of several windows by utterance,
// failing every repeat decode whose transcript differs from the first.
func firstOutcomes(r *report, windows ...*windowStats) map[int]outcome {
	first := map[int]outcome{}
	var bad int64
	for _, w := range windows {
		for _, oc := range w.outcomes {
			f, ok := first[oc.u]
			if !ok {
				first[oc.u] = oc
				continue
			}
			if f.digest != oc.digest {
				bad++
			}
		}
		if len(w.errs) > 0 {
			r.fail(int64(len(w.errs)), "%d decode errors, first: %s", len(w.errs), w.errs[0])
		}
	}
	if bad > 0 {
		r.fail(bad, "%d repeat decodes differ from the utterance's first transcript", bad)
	}
	return first
}

// prefix returns the outcomes of corpus utterances 0..prefixUtts-1,
// decoding on the reference path any the windows did not reach.
func (e *decodeEnv) prefix(first map[int]outcome) ([]outcome, error) {
	out := make([]outcome, prefixUtts)
	for u := range out {
		oc, ok := first[u]
		if !ok {
			var err error
			if oc, err = e.decodeUtt(u); err != nil {
				return nil, fmt.Errorf("utterance %d: %w", u, err)
			}
		}
		out[u] = oc
	}
	return out, nil
}

// checkPrefix compares the prefix with the pinned digests for this
// seed (when the golden file has it) and holds its word error rate
// under the workload's ceiling.
func checkPrefix(r *report, g *golden, workload string, seed int64, corpus *bench.Corpus, pre []outcome) {
	if _, pinned, ok := g.pinned(workload, seed); ok {
		var bad int64
		for i, oc := range pre {
			if pinned[i] != oc.digest {
				bad++
			}
		}
		if bad > 0 {
			r.fail(bad, "%d of %d prefix transcripts differ from the pinned digests for seed %d", bad, len(pre), seed)
		}
	}
	rate := prefixWER(corpus, pre)
	r.extra["check.prefix_wer_pct"] = rate
	if ceil := g.WERCeiling[workload]; rate > ceil {
		r.fail(int64(len(pre)), "prefix WER %.2f%% above the ceiling %.2f%%", rate, ceil)
	}
}

func prefixWER(corpus *bench.Corpus, pre []outcome) float64 {
	var c wer.Corpus
	for _, oc := range pre {
		c.Add(corpus.Utts[oc.u].Words, oc.words)
	}
	return c.Rate()
}

// checkCorpus verifies the corpus hash against the pinned one.
func checkCorpus(r *report, g *golden, workload string, seed int64, corpus *bench.Corpus) {
	if want, _, ok := g.pinned(workload, seed); ok {
		if got := hex16(corpus.Hash()); got != want {
			r.fail(1, "corpus hash %s, pinned %s for seed %d", got, want, seed)
		}
	}
}

// searchWork reports the deterministic search-work counts over the
// prefix; they move only when the search itself changes.
func searchWork(r *report, pre []outcome) {
	var frames, arcs, hyps, active, overflows int64
	maxActive := 0
	for _, oc := range pre {
		s := oc.stats
		frames += int64(s.Frames)
		arcs += s.ArcsEvaluated
		hyps += s.Hypotheses
		active += s.SumActive
		overflows += s.Store.Overflows
		if s.MaxActive > maxActive {
			maxActive = s.MaxActive
		}
	}
	if frames == 0 || arcs == 0 {
		return
	}
	r.set("decoder.arcs_per_frame", float64(arcs)/float64(frames))
	r.set("decoder.hyps_per_frame", float64(hyps)/float64(frames))
	r.set("decoder.beam_yield", float64(hyps)/float64(arcs))
	r.set("decoder.mean_active", float64(active)/float64(frames))
	r.set("decoder.max_active", float64(maxActive))
	r.set("decoder.store_overflows", float64(overflows))
}

// verify runs every output check of a decode workload over the given
// windows.
func (e *decodeEnv) verify(o options, r *report, windows ...*windowStats) ([]outcome, error) {
	g, err := loadGolden(o.golden)
	if err != nil {
		return nil, err
	}
	first := firstOutcomes(r, windows...)
	pre, err := e.prefix(first)
	if err != nil {
		r.fail(prefixUtts, "prefix decode: %v", err)
		return nil, nil
	}
	checkCorpus(r, g, e.name, o.seed, e.corpus)
	checkPrefix(r, g, e.name, o.seed, e.corpus, pre)
	return pre, nil
}

func (e *decodeEnv) measure(o options, r *report) error {
	var next atomic.Int64
	ws := e.window(o.sessions, secondsDur(o.seconds), &next, false)
	r.attempted += ws.utts + int64(len(ws.errs))
	if _, err := e.verify(o, r, ws); err != nil {
		return err
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	r.set("frames_per_s", ws.framesPerS())
	r.set("op_p50_ms", nearestRank(ws.latMS, 0.50))
	r.set("op_p99_ms", blockP99(ws.latMS, ws.latEnd))
	r.set("cpu_us_per_frame", float64(ws.cpu.Nanoseconds())/1e3/float64(ws.frames))
	r.set("peak_rss_mb", rss)
	r.extra["utterances"] = float64(ws.utts)
	r.extra["final_p50_ms"] = nearestRank(ws.finishUS, 0.50) / 1e3
	r.extra["final_p99_ms"] = nearestRank(ws.finishUS, 0.99) / 1e3
	return nil
}

// traced runs, after a warm-up, untraced and traced windows in turn
// (a traced one also ends when its span buffers fill), so the run
// reports its own tracing overhead.
func (e *decodeEnv) traced(o options, r *report) error {
	var next atomic.Int64
	slice := secondsDur(o.seconds / (2 * tracePhases))
	all := []*windowStats{e.window(o.sessions, warmUp(o), &next, false)}
	var plain, traced []*windowStats
	var tracers []*tracer
	for i := 0; i < tracePhases; i++ {
		p := e.window(o.sessions, slice, &next, false)
		t := e.window(o.sessions, slice, &next, true)
		plain, traced = append(plain, p), append(traced, t)
		tracers = append(tracers, t.tracers...)
		all = append(all, p, t)
	}
	for _, w := range all {
		r.attempted += w.utts + int64(len(w.errs))
	}
	pre, err := e.verify(o, r, all...)
	if err != nil {
		return err
	}
	searchWork(r, pre)

	lt := analyze(tracers)
	calls := lt.count["dnn"]
	flops, bytes := planCost(e.net, e.plan)
	r.set("dnn.calls", float64(calls))
	r.set("dnn.busy_s", lt.busy["dnn"])
	r.set("dnn.self_s", lt.self["dnn"])
	r.set("dnn.ns_per_frame", lt.busy["dnn"]*1e9/float64(calls))
	r.set("dnn.flops_per_frame", flops)
	r.set("dnn.bytes_per_frame", bytes)
	r.set("dnn.gflops", flops*float64(calls)/lt.busy["dnn"]/1e9)
	r.set("decoder.busy_s", lt.busy["decoder"]+lt.busy["decoder.finish"])
	r.set("decoder.self_s", lt.self["decoder"]+lt.self["decoder.finish"])
	r.set("decoder.ns_per_frame", lt.busy["decoder"]*1e9/float64(lt.count["decoder"]))
	r.set("decoder.finish_us", lt.busy["decoder.finish"]*1e6/float64(lt.count["decoder.finish"]))
	r.set("trace.op_self_s", lt.self["op"])
	r.set("trace.child_coverage", lt.coverage)
	traceOverhead(r, combinedFPS(plain), combinedFPS(traced))
	path, err := dumpSpans(o.outDir+"/traces", o.workload, o.seed, tracers)
	if err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	r.zeroLayers()
	return nil
}

// tracePhases is how many untraced/traced window pairs a traced run
// alternates through, so that slow drift in the host's speed lands on
// both sides of the overhead comparison.
const tracePhases = 2

// combinedFPS is the frame rate of several windows taken together.
func combinedFPS(ws []*windowStats) float64 {
	var frames int64
	var wall time.Duration
	for _, w := range ws {
		frames += w.frames
		wall += w.wall
	}
	return float64(frames) / wall.Seconds()
}

func traceOverhead(r *report, untraced, traced float64) {
	r.set("trace.frames_per_s_untraced", untraced)
	r.set("trace.frames_per_s_traced", traced)
	r.set("trace.overhead_share", 1-traced/untraced)
}

// planCost computes (does not measure) one frame's forward-pass work
// from the compiled plan: 2 flops per stored weight plus one per bias
// for FC layers, and the compulsory bytes each kernel streams —
// 8-byte values for dense weights, 8-byte values plus 4-byte column
// indices and row pointers for CSR — plus input and output vectors.
// Pooling and renorm layers count 2 flops and 8 bytes per input.
func planCost(net *dnn.Network, plan *dnn.Plan) (flops, bytes float64) {
	kernels := plan.Kernels()
	for i, l := range net.Layers {
		in, out := float64(l.InDim()), float64(l.OutDim())
		fc, ok := l.(*dnn.FC)
		if !ok {
			flops += 2 * in
			bytes += 8 * (in + out)
			continue
		}
		switch kernels[i] {
		case "dense":
			w := float64(fc.WeightCount())
			flops += 2*w + out
			bytes += 8*w + 8*out + 8*(in+out)
		default: // sparse (CSR)
			nnz := float64(fc.ActiveWeights())
			flops += 2*nnz + out
			bytes += 12*nnz + 4*(out+1) + 8*out + 8*(in+out)
		}
	}
	// log-softmax over the output: max, exp-sum, subtract
	out := float64(plan.OutDim())
	flops += 4 * out
	return flops, bytes
}

// splicer reuses one buffer for an utterance's spliced frames, so the
// benchmark's input preparation adds no per-utterance garbage for the
// collector to compete with the measured calls over. It yields exactly
// what bench.Corpus.Spliced returns: speech.Splice's frames
// t-context..t+context, edge frames repeated (TestSplicerMatches).
type splicer struct {
	flat []float64
	rows [][]float64
}

func (s *splicer) splice(c *bench.Corpus, u int) [][]float64 {
	frames, ctx := c.Utts[u].Frames, c.Spec.Context
	n := len(frames)
	if n == 0 {
		return nil
	}
	dim := len(frames[0]) * (2*ctx + 1)
	if cap(s.flat) < n*dim {
		s.flat = make([]float64, n*dim)
	}
	if cap(s.rows) < n {
		s.rows = make([][]float64, n)
	}
	rows := s.rows[:n]
	for t := range frames {
		row := s.flat[t*dim : (t+1)*dim : (t+1)*dim]
		k := 0
		for off := -ctx; off <= ctx; off++ {
			k += copy(row[k:], frames[min(max(t+off, 0), n-1)])
		}
		rows[t] = row
	}
	return rows
}

func hex16(v uint64) string { return fmt.Sprintf("%016x", v) }

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// warmUp is the untimed lead-in of a traced run, so that its untraced
// and traced halves both start with a grown heap and warm caches.
func warmUp(o options) time.Duration { return secondsDur(math.Min(1, o.seconds/10)) }
