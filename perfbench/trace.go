package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span layer names. A span is recorded by the benchmark around one
// call it makes into a module's public function.
const (
	spanOp        uint8 = iota // one operation: an utterance, or one retrain
	spanDNN                    // dnn.Exec.LogPosteriors
	spanDecoder                // decoder.Session.PushFrame
	spanFinish                 // decoder.Session.Finish
	spanDial                   // serve.Dial (admission)
	spanPush                   // serve.ClientSession.PushFrame
	spanFinal                  // finish sent -> final result received
	spanCalibrate              // pruning.CalibrateQuality
	spanPrune                  // pruning.Prune
	spanTrain                  // dnn.Trainer.Train
	spanMask                   // mask re-application and plan invalidation
)

var spanNames = []string{"op", "dnn", "decoder", "decoder.finish", "serve.dial", "serve.push",
	"serve.final", "pruning.calibrate", "pruning.prune", "dnn.train", "dnn.mask"}

// span is one recorded interval; times are nanoseconds since the
// tracer's base. parent indexes the same tracer's spans (-1 = root).
type span struct {
	start, end int64
	parent     int32
	utt        int32
	name       uint8
}

// tracer is one worker's span buffer. It is owned by a single
// goroutine; a full buffer stops recording instead of growing, so the
// traced phase has a fixed memory ceiling.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer(base time.Time, capacity int) *tracer {
	return &tracer{base: base, spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// room reports whether n more spans fit.
func (t *tracer) room(n int) bool { return len(t.spans)+n <= cap(t.spans) }

// add appends a finished span and returns its index.
func (t *tracer) add(name uint8, start, end int64, parent int32, utt int) int32 {
	t.spans = append(t.spans, span{start: start, end: end, parent: parent, utt: int32(utt), name: name})
	return int32(len(t.spans) - 1)
}

// open appends a span whose end is filled in by close.
func (t *tracer) open(name uint8, parent int32, utt int) int32 {
	return t.add(name, t.now(), 0, parent, utt)
}

func (t *tracer) close(i int32) { t.spans[i].end = t.now() }

// layerTimes is the analysis of a set of tracers: per layer, the
// summed span time (busy), the part not covered by child spans (self)
// and the span count; and, per root operation, the share of its time
// its child spans cover.
type layerTimes struct {
	busy, self map[string]float64 // seconds
	count      map[string]int64
	coverage   float64 // mean over root spans of child time / span time
}

func analyze(ts []*tracer) layerTimes {
	lt := layerTimes{busy: map[string]float64{}, self: map[string]float64{}, count: map[string]int64{}}
	var covSum float64
	var roots int
	for _, t := range ts {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			d := s.end - s.start
			name := spanNames[s.name]
			lt.busy[name] += float64(d) / 1e9
			lt.self[name] += float64(d-child[i]) / 1e9
			lt.count[name]++
			if s.parent < 0 && d > 0 {
				covSum += float64(child[i]) / float64(d)
				roots++
			}
		}
	}
	if roots > 0 {
		lt.coverage = covSum / float64(roots)
	}
	return lt
}

// dumpSpans writes every span as one NDJSON line (gzip-compressed)
// under dir, named for the workload and seed, and returns the path.
func dumpSpans(dir, workload string, seed int64, ts []*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.ndjson.gz", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(zw)
	for w, t := range ts {
		for i, s := range t.spans {
			fmt.Fprintf(bw, `{"worker":%d,"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"utt":%d}`+"\n",
				w, i, spanNames[s.name], s.start, s.end, s.parent, s.utt)
		}
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	if err := zw.Close(); err != nil {
		return "", err
	}
	return path, f.Close()
}
