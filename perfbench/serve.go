package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/asr"
	"repro/internal/bench"
	"repro/internal/dnn"
	"repro/internal/serve"
)

// server is a running asrserve child process.
type server struct {
	cmd         *exec.Cmd
	addr        string
	metricsAddr string
	stderr      bytes.Buffer  // read only after the process has exited
	drained     chan struct{} // closed once stdout hits EOF
}

// startServer launches asrserve on the tiny-scale fixture and waits
// until it prints its listening address. metrics enables its /metrics
// endpoint (and with it the server's own instrumentation).
func startServer(bin, model string, metrics bool) (*server, error) {
	s := &server{drained: make(chan struct{})}
	args := []string{"-scale", "tiny", "-model", model, "-backend", "auto", "-addr", "localhost:0"}
	if metrics {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		s.metricsAddr = port
		args = append(args, "-metrics-addr", port)
	}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stderr = &s.stderr
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w (run perfbench/run.sh, which builds it)", bin, err)
	}
	ready := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				ready <- a
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case s.addr = <-ready:
	case <-s.drained:
		err := s.cmd.Wait()
		return nil, fmt.Errorf("asrserve exited before listening (%v): %s", err, s.stderr.String())
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.drained
		_ = s.cmd.Wait()
		return nil, errors.New("asrserve did not print its address within 60s")
	}
	// asrserve prints its address before it installs its signal
	// handlers and starts accepting; one empty session proves both.
	if err := probe(s.addr); err != nil {
		_ = s.stop()
		return nil, err
	}
	if metrics {
		if err := waitHTTP("http://" + s.metricsAddr + "/metrics"); err != nil {
			_ = s.stop()
			return nil, err
		}
	}
	return s, nil
}

// probe runs one zero-frame session against addr.
func probe(addr string) error {
	cs, err := serve.Dial(addr, serve.SessionOptions{ID: "probe"})
	if err != nil {
		return fmt.Errorf("readiness probe: %w", err)
	}
	defer cs.Close()
	if _, _, err := cs.Finish(); err != nil {
		return fmt.Errorf("readiness probe: %w", err)
	}
	return nil
}

// stop sends SIGTERM and waits for the graceful drain; a server that
// does not exit within 30 s is killed and reported.
func (s *server) stop() error {
	if s == nil || s.cmd.Process == nil {
		return nil
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.drained
	}
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("asrserve did not drain cleanly: %v: %s", err, s.stderr.String())
	}
	return nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// freePort reserves a localhost port by binding and releasing it.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func waitHTTP(url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("metrics endpoint %s not up: %w", url, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// serveEnv is the set-up serve-pruned workload: a running asrserve on
// the tiny 90%-pruned fixture and the seed's tiny-scale corpus.
type serveEnv struct {
	model  string
	bin    string
	srv    *server
	corpus *bench.Corpus
}

func setupServePruned(o options, st map[string]float64) (runner, error) {
	model, err := fixturePath(o.fixtures, fixtureTinyP90)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	corpus, err := bench.Generate(bench.SpecFor(asr.ScaleTiny(), prunedCorpusUtts, o.seed))
	if err != nil {
		return nil, err
	}
	st["bench.corpus_ms"] = msSince(t)
	t = time.Now()
	srv, err := startServer(o.serveBin, model, false)
	if err != nil {
		return nil, err
	}
	st["serve.start_ms"] = msSince(t)
	return &serveEnv{model: model, bin: o.serveBin, srv: srv, corpus: corpus}, nil
}

func (e *serveEnv) close() error {
	err := e.srv.stop()
	e.srv = nil
	return err
}

// serveWindow is windowStats plus the client-side serving figures.
type serveWindow struct {
	*windowStats
	dialUS           []float64
	pushTime         time.Duration
	rejects, retries int64
	serverCPU        time.Duration
	readBytes, reads int64
}

// add accumulates another window's figures into w.
func (w *serveWindow) add(o *serveWindow) {
	w.utts += o.utts
	w.frames += o.frames
	w.wall += o.wall
	w.cpu += o.cpu
	w.latMS = append(w.latMS, o.latMS...)
	w.latEnd = append(w.latEnd, o.latEnd...)
	w.finishUS = append(w.finishUS, o.finishUS...)
	w.tracers = append(w.tracers, o.tracers...)
	w.dialUS = append(w.dialUS, o.dialUS...)
	w.pushTime += o.pushTime
	w.rejects += o.rejects
	w.retries += o.retries
	w.serverCPU += o.serverCPU
	w.readBytes += o.readBytes
	w.reads += o.reads
}

// maxAttempts bounds admission retries per utterance.
const maxAttempts = 8

// window streams corpus utterances to the server from o.sessions
// closed-loop client connections until dur has passed: each client
// dials, pushes every frame as fast as TCP flow control allows, sends
// finish and waits for the result before the next utterance.
func (e *serveEnv) window(srv *server, sessions int, dur time.Duration, next *atomic.Int64, trace bool) (*serveWindow, error) {
	sw := &serveWindow{windowStats: &windowStats{}}
	pid := srv.pid()
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	rb0, rs0, err := procIO(pid)
	if err != nil {
		return nil, err
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	t0 := time.Now()
	self0 := selfCPU()
	n := len(e.corpus.Utts)
	for w := 0; w < sessions; w++ {
		var tr *tracer
		if trace {
			tr = newTracer(t0, spansPerWorker)
			sw.tracers = append(sw.tracers, tr)
		}
		wg.Add(1)
		go func(tr *tracer) {
			defer wg.Done()
			var (
				sp               splicer
				lat, fin, dial   []float64
				ends             []time.Time
				outs             []outcome
				errs             []string
				nUtts, nFrames   int64
				push             time.Duration
				rejects, retries int64
			)
			for !stop.Load() && time.Since(t0) < dur {
				u := int(next.Add(1)-1) % n
				frames := sp.splice(e.corpus, u)
				if tr != nil && !tr.room(len(frames)+3) {
					stop.Store(true)
					break
				}
				var root int32
				start := time.Now()
				if tr != nil {
					root = tr.open(spanOp, -1, u)
				}
				var dsp int32
				if tr != nil {
					dsp = tr.open(spanDial, root, u)
				}
				cs, rj, rt, err := dialRetry(srv.addr, u)
				rejects += rj
				retries += rt
				dialed := time.Now()
				if tr != nil {
					tr.close(dsp)
				}
				if err != nil {
					errs = append(errs, fmt.Sprintf("utterance %d: %v", u, err))
					if tr != nil {
						tr.close(root)
					}
					continue
				}
				for _, f := range frames {
					if tr == nil {
						err = cs.PushFrame(f)
					} else {
						a := tr.now()
						err = cs.PushFrame(f)
						tr.add(spanPush, a, tr.now(), root, u)
					}
					if err != nil {
						break
					}
				}
				fs := time.Now()
				push += fs.Sub(dialed)
				var rep serve.Reply
				if err == nil {
					var fsp int32
					if tr != nil {
						fsp = tr.open(spanFinal, root, u)
					}
					rep, _, err = cs.Finish()
					if tr != nil {
						tr.close(fsp)
					}
				}
				end := time.Now()
				if tr != nil {
					tr.close(root)
				}
				_ = cs.Close()
				if err != nil {
					errs = append(errs, fmt.Sprintf("utterance %d: %v", u, err))
					continue
				}
				nUtts++
				nFrames += int64(len(frames))
				lat = append(lat, float64(end.Sub(start).Nanoseconds())/1e6)
				ends = append(ends, end)
				fin = append(fin, float64(end.Sub(fs).Nanoseconds())/1e3)
				dial = append(dial, float64(dialed.Sub(start).Nanoseconds())/1e3)
				outs = append(outs, outcome{u: u, digest: digestResult(rep.OK, rep.Cost, rep.Words), words: rep.Words})
			}
			mu.Lock()
			sw.utts += nUtts
			sw.frames += nFrames
			sw.latMS = append(sw.latMS, lat...)
			sw.latEnd = append(sw.latEnd, ends...)
			sw.finishUS = append(sw.finishUS, fin...)
			sw.dialUS = append(sw.dialUS, dial...)
			sw.outcomes = append(sw.outcomes, outs...)
			sw.errs = append(sw.errs, errs...)
			sw.pushTime += push
			sw.rejects += rejects
			sw.retries += retries
			mu.Unlock()
		}(tr)
	}
	wg.Wait()
	sw.wall = time.Since(t0)
	sw.cpu = selfCPU() - self0
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	rb1, rs1, err := procIO(pid)
	if err != nil {
		return nil, err
	}
	sw.serverCPU = cpu1 - cpu0
	sw.readBytes, sw.reads = rb1-rb0, rs1-rs0
	return sw, nil
}

// dialRetry opens a session, backing off on capacity rejects as the
// server asks; it returns the rejects it saw and the redials it made.
func dialRetry(addr string, u int) (cs *serve.ClientSession, rejects, retries int64, err error) {
	for attempt := 1; ; attempt++ {
		cs, err = serve.Dial(addr, serve.SessionOptions{ID: fmt.Sprintf("bench-%05d", u)})
		var rj *serve.RejectedError
		if !errors.As(err, &rj) {
			return cs, rejects, retries, err
		}
		rejects++
		if rj.Permanent() || attempt == maxAttempts {
			return nil, rejects, retries, err
		}
		retries++
		time.Sleep(rj.RetryAfter)
	}
}

// verify checks the served transcripts: repeats agree, every served
// utterance equals the in-process decode of the same model (served ≡
// local), and the prefix matches the pinned digests and WER ceiling
// of decode-pruned. It returns the local env's setup stage timings.
func (e *serveEnv) verify(o options, r *report, windows ...*windowStats) (*decodeEnv, map[string]float64, error) {
	g, err := loadGolden(o.golden)
	if err != nil {
		return nil, nil, err
	}
	st := map[string]float64{}
	local, err := loadDecodeEnv(o.fixtures, "decode-pruned", asr.ScaleTiny(), fixtureTinyP90, dnn.BackendAuto, st)
	if err != nil {
		return nil, nil, err
	}
	local.corpus = e.corpus
	first := firstOutcomes(r, windows...)
	var bad int64
	for u, oc := range first {
		ref, err := local.decodeUtt(u)
		if err != nil {
			return nil, nil, err
		}
		if ref.digest != oc.digest {
			bad++
		}
	}
	if bad > 0 {
		r.fail(bad, "%d served transcripts differ from the local decode", bad)
	}
	pre, err := local.prefix(first)
	if err != nil {
		return nil, nil, err
	}
	checkCorpus(r, g, "serve-pruned", o.seed, e.corpus)
	checkPrefix(r, g, "serve-pruned", o.seed, e.corpus, pre)
	return local, st, nil
}

func (e *serveEnv) measure(o options, r *report) error {
	var next atomic.Int64
	sw, err := e.window(e.srv, o.sessions, secondsDur(o.seconds), &next, false)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(e.srv.pid())
	if err != nil {
		return err
	}
	r.attempted += sw.utts + int64(len(sw.errs))
	if _, _, err := e.verify(o, r, sw.windowStats); err != nil {
		return err
	}
	frames := float64(sw.frames)
	r.set("frames_per_s", sw.framesPerS())
	r.set("op_p50_ms", nearestRank(sw.latMS, 0.50))
	r.set("op_p99_ms", blockP99(sw.latMS, sw.latEnd))
	r.set("cpu_us_per_frame", float64(sw.serverCPU.Nanoseconds())/1e3/frames)
	r.set("peak_rss_mb", rss)
	r.extra["utterances"] = float64(sw.utts)
	r.extra["final_p50_ms"] = nearestRank(sw.finishUS, 0.50) / 1e3
	r.extra["final_p99_ms"] = nearestRank(sw.finishUS, 0.99) / 1e3
	r.extra["client_cpu_us_per_frame"] = float64(sw.cpu.Nanoseconds()) / 1e3 / frames
	return nil
}

// traced starts a second asrserve with /metrics enabled beside the
// plain one and, after warming both, alternates untraced windows on
// the plain server with windows under client spans on the instrumented
// one. The server's figures are the difference of /metrics scrapes
// taken around the traced windows, which alone reach that server.
func (e *serveEnv) traced(o options, r *report) (err error) {
	inst, err := startServer(e.bin, e.model, true)
	if err != nil {
		return err
	}
	defer func() {
		if serr := inst.stop(); err == nil {
			err = serr
		}
	}()
	var next atomic.Int64
	var all []*windowStats
	run := func(srv *server, dur time.Duration, trace bool) (*serveWindow, error) {
		w, err := e.window(srv, o.sessions, dur, &next, trace)
		if err == nil {
			all = append(all, w.windowStats)
		}
		return w, err
	}
	for _, srv := range []*server{e.srv, inst} {
		if _, err := run(srv, warmUp(o), false); err != nil {
			return err
		}
	}
	url := "http://" + inst.metricsAddr + "/metrics"
	before, err := scrape(url)
	if err != nil {
		return err
	}
	slice := secondsDur(o.seconds / (2 * tracePhases))
	var plain, traced []*windowStats
	tw := &serveWindow{windowStats: &windowStats{}}
	for i := 0; i < tracePhases; i++ {
		p, err := run(e.srv, slice, false)
		if err != nil {
			return err
		}
		t, err := run(inst, slice, true)
		if err != nil {
			return err
		}
		plain, traced = append(plain, p.windowStats), append(traced, t.windowStats)
		tw.add(t)
	}
	after, err := scrape(url)
	if err != nil {
		return err
	}
	snap := scrapeDelta{before, after}
	for _, w := range all {
		r.attempted += w.utts + int64(len(w.errs))
	}
	local, st, err := e.verify(o, r, all...)
	if err != nil {
		return err
	}
	for k, v := range st {
		r.set(k, v)
	}

	frames := float64(tw.frames)
	cpuS := tw.serverCPU.Seconds()
	r.set("serve.dial_us_p50", nearestRank(tw.dialUS, 0.50))
	r.set("serve.push_ns_per_frame", float64(tw.pushTime.Nanoseconds())/frames)
	r.set("serve.final_p50_ms", nearestRank(tw.finishUS, 0.50)/1e3)
	r.set("serve.final_p99_ms", nearestRank(tw.finishUS, 0.99)/1e3)
	r.set("serve.client_cpu_us_per_frame", float64(tw.cpu.Nanoseconds())/1e3/frames)
	r.set("serve.server_read_bytes_per_frame", float64(tw.readBytes)/frames)
	r.set("serve.server_read_syscalls_per_frame", float64(tw.reads)/frames)
	r.set("serve.rejects", float64(tw.rejects))
	r.set("serve.retries", float64(tw.retries))
	r.set("serve.batch_size_mean", snap.mean("serve.batch_size"))
	r.set("serve.queue_wait_us_mean", snap.mean("serve.queue_wait_seconds")*1e6)
	if total := snap.field("serve.batch_flush_reason", "total"); total > 0 {
		r.set("serve.flush_full_share", snap.child("serve.batch_flush_reason", "full", "")/total)
	}
	kernelS := snap.childSum("dnn.kernel_seconds", "sum")
	searchS := snap.field("decode.frame_seconds", "sum")
	r.set("serve.server_dnn_share", kernelS/cpuS)
	r.set("serve.server_search_share", searchS/cpuS)

	// The server's own timers give its dnn and decoder busy time.
	passes := snap.field("dnn.forward_passes", "value")
	dnnS := snap.field("dnn.forward_seconds", "sum")
	decFrames := snap.field("decode.frames", "value")
	flops, bytes := planCost(local.net, local.plan)
	r.set("dnn.calls", passes)
	r.set("dnn.busy_s", dnnS)
	r.set("dnn.ns_per_frame", dnnS*1e9/passes)
	r.set("dnn.flops_per_frame", flops)
	r.set("dnn.bytes_per_frame", bytes)
	r.set("dnn.gflops", flops*passes/dnnS/1e9)
	r.set("decoder.busy_s", searchS)
	r.set("decoder.ns_per_frame", searchS*1e9/decFrames)

	lt := analyze(tw.tracers)
	r.set("trace.op_self_s", lt.self["op"])
	r.set("trace.child_coverage", lt.coverage)
	traceOverhead(r, combinedFPS(plain), combinedFPS(traced))
	r.extra["server_cpu_us_per_frame"] = cpuS * 1e6 / frames
	path, err := dumpSpans(o.outDir+"/traces", o.workload, o.seed, tw.tracers)
	if err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	r.zeroLayers()
	return nil
}

// metricsSnapshot is the decoded /metrics JSON of an asrserve.
type metricsSnapshot map[string]map[string]any

func scrape(url string) (metricsSnapshot, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Metrics metricsSnapshot `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", url, err)
	}
	return doc.Metrics, nil
}

// field reads a numeric field of a metric (0 when absent).
func (m metricsSnapshot) field(metric, key string) float64 {
	v, _ := m[metric][key].(float64)
	return v
}

// child reads a family child: values[label] itself (counter families)
// or values[label][key] (timer families, key non-empty).
func (m metricsSnapshot) child(metric, label, key string) float64 {
	values, _ := m[metric]["values"].(map[string]any)
	if key == "" {
		v, _ := values[label].(float64)
		return v
	}
	c, _ := values[label].(map[string]any)
	v, _ := c[key].(float64)
	return v
}

// scrapeDelta is the change in a server's metrics between two scrapes.
type scrapeDelta struct{ before, after metricsSnapshot }

func (d scrapeDelta) field(metric, key string) float64 {
	return d.after.field(metric, key) - d.before.field(metric, key)
}

// mean is a histogram's mean over the interval.
func (d scrapeDelta) mean(metric string) float64 {
	n := d.field(metric, "count")
	if n == 0 {
		return 0
	}
	return d.field(metric, "sum") / n
}

func (d scrapeDelta) child(metric, label, key string) float64 {
	return d.after.child(metric, label, key) - d.before.child(metric, label, key)
}

// childSum sums key over every child of a timer family.
func (d scrapeDelta) childSum(metric, key string) float64 {
	values, _ := d.after[metric]["values"].(map[string]any)
	var s float64
	for label := range values {
		s += d.child(metric, label, key)
	}
	return s
}
