package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/asr"
	"repro/internal/dnn"
	"repro/internal/pruning"
	"repro/internal/speech"
)

const retrainTarget = 0.9

// retrainEnv is the set-up retrain-p90 workload: the small unpruned
// fixture and the seed's training and test samples.
type retrainEnv struct {
	scale       asr.Scale
	base        *dnn.Network
	train, test []dnn.Sample
}

func setupRetrain(o options, st map[string]float64) (runner, error) {
	scale := asr.ScaleSmall()
	path, err := fixturePath(o.fixtures, fixtureSmallDense)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	base, err := dnn.LoadFile(path)
	if err != nil {
		return nil, err
	}
	base.Plan()
	st["dnn.load_compile_ms"] = msSince(t)

	// The scale's own train/test recipe (asr.Build), drawn from the
	// workload seed instead of asr.Build's fixed seeds.
	t = time.Now()
	world, err := speech.NewWorld(scale.World)
	if err != nil {
		return nil, err
	}
	trainSet := world.SynthesizeSet(scale.TrainUtts, scale.WordsPerUtt, o.seed)
	testSet := world.SynthesizeSetNoisy(scale.TestUtts, scale.WordsPerUtt, o.seed+1_000_003, scale.TestNoiseScale)
	e := &retrainEnv{
		scale: scale,
		base:  base,
		train: speech.TrainingSamples(trainSet, scale.Context),
		test:  speech.TrainingSamples(testSet, scale.Context),
	}
	st["bench.corpus_ms"] = msSince(t)
	return e, nil
}

func (e *retrainEnv) close() error { return nil }

// trainFrames is the number of forward+backward passes one retrain
// makes: samples × epochs.
func (e *retrainEnv) trainFrames() int64 {
	return int64(len(e.train)) * int64(e.scale.Retrain.Epochs)
}

type retrainOut struct {
	net  *dnn.Network
	wall time.Duration
	top1 float64
}

// retrain is one untraced operation: pruning.PruneAndRetrain of the
// baseline to 90%, then the test-set top-1 of the result.
func (e *retrainEnv) retrain() (retrainOut, error) {
	t0 := time.Now()
	res, err := pruning.PruneAndRetrain(e.base, e.train, pruning.Config{Target: retrainTarget, Retrain: e.scale.Retrain})
	wall := time.Since(t0)
	if err != nil {
		return retrainOut{}, err
	}
	top1, _, _ := dnn.Evaluate(res.Net, e.test)
	return retrainOut{net: res.Net, wall: wall, top1: top1}, nil
}

// check holds the retrained net to 90.0% global sparsity and the
// pinned test top-1 floor.
func (e *retrainEnv) check(r *report, g *golden, out retrainOut) {
	if got := math.Round(out.net.GlobalPruning()*1000) / 10; got != 100*retrainTarget {
		r.fail(1, "global sparsity %.1f%%, want %.1f%%", got, 100*retrainTarget)
	}
	if out.top1 < g.Top1Floor {
		r.fail(1, "test top-1 %.4f below the floor %.4f", out.top1, g.Top1Floor)
	}
	r.extra["check.top1"] = out.top1
}

func (e *retrainEnv) measure(o options, r *report) error {
	g, err := loadGolden(o.golden)
	if err != nil {
		return err
	}
	dur := secondsDur(o.seconds)
	var lat []float64
	var wall, cpu time.Duration
	var ops int64
	// Whole retrains only: another starts while the window still has
	// room for one as long as the last.
	t0 := time.Now()
	var last time.Duration
	for ops == 0 || time.Since(t0)+last <= dur {
		cpu0 := selfCPU()
		out, err := e.retrain()
		r.attempted++
		ops++
		if err != nil {
			r.fail(1, "retrain: %v", err)
			continue
		}
		cpu += selfCPU() - cpu0
		wall += out.wall
		last = out.wall
		lat = append(lat, float64(out.wall.Nanoseconds())/1e6)
		e.check(r, g, out)
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	frames := float64(e.trainFrames() * ops)
	r.set("frames_per_s", frames/wall.Seconds())
	r.set("op_p50_ms", nearestRank(lat, 0.50))
	r.set("op_p99_ms", nearestRank(lat, 0.99))
	r.set("cpu_us_per_frame", float64(cpu.Nanoseconds())/1e3/frames)
	r.set("peak_rss_mb", rss)
	r.extra["train_samples"] = float64(len(e.train))
	return nil
}

// traced runs one untraced PruneAndRetrain, then the same pipeline
// step by step — CalibrateQuality, Prune, Trainer.Train, mask
// re-application — under spans, and requires the two results to be
// bit-identical.
func (e *retrainEnv) traced(o options, r *report) error {
	g, err := loadGolden(o.golden)
	if err != nil {
		return err
	}
	ref, err := e.retrain()
	r.attempted += 2
	if err != nil {
		return fmt.Errorf("retrain: %w", err)
	}
	e.check(r, g, ref)

	tr := newTracer(time.Now(), 16)
	net := e.base.Clone()
	root := tr.open(spanOp, -1, 0)
	sp := tr.open(spanCalibrate, root, 0)
	q, err := pruning.CalibrateQuality(net, retrainTarget)
	tr.close(sp)
	if err != nil {
		return err
	}
	sp = tr.open(spanPrune, root, 0)
	pruning.Prune(net, q)
	tr.close(sp)
	sp = tr.open(spanTrain, root, 0)
	dnn.NewTrainer(net).Train(e.train, e.scale.Retrain)
	tr.close(sp)
	sp = tr.open(spanMask, root, 0)
	for _, fc := range net.FCs() {
		fc.ApplyMask()
	}
	net.InvalidatePlan()
	dnn.PublishWeightStats(net)
	tr.close(sp)
	tr.close(root)
	if !sameWeights(ref.net, net) {
		r.fail(1, "step-by-step retrain differs from PruneAndRetrain")
	}

	lt := analyze([]*tracer{tr})
	frames := float64(e.trainFrames())
	flops, bytes := trainCost(net)
	r.set("pruning.calibrate_ms", lt.busy["pruning.calibrate"]*1e3)
	r.set("pruning.prune_ms", lt.busy["pruning.prune"]*1e3)
	r.set("dnn.train_us_per_sample", lt.busy["dnn.train"]*1e6/frames)
	r.set("dnn.calls", frames)
	r.set("dnn.busy_s", lt.busy["dnn.train"])
	r.set("dnn.self_s", lt.self["dnn.train"])
	r.set("dnn.ns_per_frame", lt.busy["dnn.train"]*1e9/frames)
	r.set("dnn.flops_per_frame", flops)
	r.set("dnn.bytes_per_frame", bytes)
	r.set("dnn.gflops", flops*frames/lt.busy["dnn.train"]/1e9)
	r.set("trace.op_self_s", lt.self["op"])
	r.set("trace.child_coverage", lt.coverage)
	traceOverhead(r, frames/ref.wall.Seconds(), frames/lt.busy["op"])
	path, err := dumpSpans(o.outDir+"/traces", o.workload, o.seed, []*tracer{tr})
	if err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	r.zeroLayers()
	return nil
}

// trainCost computes one training sample's work over the FC layers,
// which train densely with masks re-applied: forward (2 flops per
// weight), input gradient and weight gradient (2 each), and the bytes
// those passes stream — weights read twice, gradients read and
// written — plus the per-batch SGD step amortized over 16 samples.
func trainCost(net *dnn.Network) (flops, bytes float64) {
	for _, fc := range net.FCs() {
		w := float64(fc.WeightCount())
		flops += 6 * w
		bytes += 8*w*4 + 8*w*3/16
	}
	return flops, bytes
}

// sameWeights reports whether two networks hold bit-identical FC
// weights, biases and masks.
func sameWeights(a, b *dnn.Network) bool {
	fa, fb := a.FCs(), b.FCs()
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if !sameBits(fa[i].W.Data, fb[i].W.Data) || !sameBits(fa[i].B, fb[i].B) || len(fa[i].Mask) != len(fb[i].Mask) {
			return false
		}
		for j := range fa[i].Mask {
			if fa[i].Mask[j] != fb[i].Mask[j] {
				return false
			}
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
