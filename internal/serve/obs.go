package serve

import "repro/internal/obs"

// Serving-path metrics (see docs/OBSERVABILITY.md for the catalogue
// and docs/SERVING.md for how they relate to admission control and
// the cross-session batcher). Like every other instrumented package,
// updates are dropped at one atomic load's cost while observation is
// disabled and none of them feed back into decoding — transcripts are
// bit-identical with metrics on or off.
var (
	obsSessionsActive = obs.NewGauge("serve.sessions_active", "sessions",
		"decode sessions currently admitted and in flight")
	obsSessionsTotal = obs.NewCounter("serve.sessions_total", "sessions",
		"decode sessions admitted since start")
	obsRejects = obs.NewCounter("serve.rejects", "sessions",
		"session starts rejected (at capacity, draining, or unknown model)")
	obsModelSessions = obs.NewCounterFamily("serve.model_sessions", "sessions", "model",
		"decode sessions admitted, per model variant")
	obsModelFrames = obs.NewCounterFamily("serve.model_frames", "frames", "model",
		"acoustic frames scored, per model variant")
	obsErrors = obs.NewCounter("serve.errors", "errors",
		"sessions ended by a protocol or I/O error")
	obsBadFrames = obs.NewCounter("serve.bad_frames", "frames",
		"frames refused at the wire for a NaN or ±Inf feature (the session ends with an error)")
	obsDeadlineExceeded = obs.NewCounter("serve.deadline_exceeded", "sessions",
		"sessions aborted by the per-request deadline or idle timeout")
	obsBatchSize = obs.NewHistogram("serve.batch_size", "frames",
		"frames coalesced per cross-session DNN forward pass", obs.CountBuckets(1024))
	obsQueueDepth = obs.NewGauge("serve.queue_depth", "frames",
		"score requests waiting in the batcher queue (sampled at enqueue)")
	obsBatchFlushReason = obs.NewCounterFamily("serve.batch_flush_reason", "flushes", "reason",
		"batched forward passes by why the batch closed: full (covered every "+
			"pinned session or hit max-batch), window (flush window expired), "+
			"opportunistic (windowless batcher drained the queue), drain (shutdown flush)")
	obsQueueWait = obs.NewTimer("serve.queue_wait_seconds",
		"seconds a frame waits in the batcher queue before its forward pass starts")
	obsRequestTime = obs.NewTimer("serve.request_seconds",
		"wall-clock seconds per session, admission to final result")
)
