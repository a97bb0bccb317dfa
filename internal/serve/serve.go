// Package serve is the streaming ASR decode service: a long-lived,
// stdlib-only TCP server that turns the repo's batch decode pipeline
// into the serving deployment the paper's accelerators target. Each
// connection is one decoder.Session fed frame by frame; acoustic
// scoring is amortized by per-model cross-session dynamic batchers
// that coalesce frames arriving from concurrent sessions pinned to
// the same model variant into one layer-major dnn forward pass
// (bit-identical per row, so transcripts match the offline CLIs
// exactly).
//
// The server fronts a model registry (internal/registry): N named
// (model, backend) variants served side by side, selected per session
// by the handshake's model field, with atomic plan-pointer hot-swap —
// in-flight sessions finish on the plan they pinned at admission, new
// sessions pick up reloaded weights, and frames only ever batch
// within one plan, which is what keeps row-wise bit-identity intact
// across a fleet of coexisting variants.
//
// The production plumbing around that core is the point of the
// package: bounded admission (explicit reject with a retry-after hint
// instead of unbounded queue growth; unknown models get a structured
// reject listing the servable variants), per-request deadlines and
// idle timeouts, graceful drain on shutdown (in-flight sessions
// finish, new ones are refused), and full internal/obs
// instrumentation (active sessions, per-model session/frame counters,
// batch-size histogram, queue depth/wait, rejects, per-request
// latency). It is where the paper's "dark side" becomes operational:
// a 90%-pruned model inflates per-frame search cost, so under
// concurrent load the serve.request_seconds histogram shows the tail
// blowup that Figure 4's workload explosion predicts — now comparable
// across pruning levels within one process.
//
// Protocol and semantics are documented in docs/SERVING.md;
// cmd/asrserve is the binary, cmd/asrrouter the shard router in front
// of it, and cmd/asrload the load generator.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/decoder"
	"repro/internal/dnn"
	"repro/internal/registry"
)

// Config assembles a Server. Decoder and either Registry or Net are
// required; everything else has serving-grade defaults.
type Config struct {
	// Registry holds the named model variants this server offers;
	// sessions select one with the handshake's model field (empty =
	// the registry's default). Variant weights may be hot-swapped
	// while serving (registry.Variant.Swap / Reload): sessions in
	// flight finish on the plan they pinned at admission.
	Registry *registry.Registry
	// Net is the legacy single-model configuration: when Registry is
	// nil, Net is compiled under Backend and registered as the sole
	// variant, named "default". The weights must not change for the
	// server's lifetime (pass a Clone to keep mutating the original).
	Net *dnn.Network
	// Backend selects the scoring kernels compiled for Net (ignored
	// when Registry is set): auto (default; CSR sparse for pruned
	// layers under the density threshold), dense, sparse, bsr, or int8
	// (quantized integer kernels — deterministic, error-budget-bounded
	// per docs/QUANT.md). Transcripts are bit-identical across the
	// float backends; only the forward-pass cost changes.
	Backend dnn.Backend
	// Decoder is the shared read-only search graph wrapper; any
	// number of sessions decode against it concurrently. All variants
	// share it, so every variant must produce the same senone set
	// (enforced by registry.Register).
	Decoder *decoder.Decoder
	// Decode configures each session's search (beam, store factory,
	// acoustic scale). The store factory is invoked once per session.
	Decode decoder.Config

	// MaxSessions bounds concurrently admitted sessions; starts
	// beyond it are rejected with a retry-after hint (default 64).
	MaxSessions int
	// QueueDepth bounds each per-model batcher's frame queue; a full
	// queue blocks sessions (TCP backpressure), never grows (default
	// 4*MaxSessions).
	QueueDepth int
	// BatchWindow is how long a batcher waits from the first queued
	// frame for companions before flushing a forward pass (default
	// 1ms; negative = flush immediately, batching only what is
	// already queued).
	BatchWindow time.Duration
	// MaxBatch caps frames per forward pass (default MaxSessions).
	MaxBatch int

	// IdleTimeout aborts a session when the client sends nothing for
	// this long (default 30s).
	IdleTimeout time.Duration
	// DefaultDeadline bounds a whole session when the client does not
	// set deadline_ms (default 2m).
	DefaultDeadline time.Duration
	// RetryAfter is the backoff hint attached to admission rejects
	// (default 250ms).
	RetryAfter time.Duration
}

func (c *Config) fillDefaults() error {
	if c.Registry == nil && c.Net == nil {
		return errors.New("serve: Config needs Registry or Net")
	}
	if c.Decoder == nil {
		return errors.New("serve: Config.Decoder is required")
	}
	if c.Registry == nil {
		reg := registry.New()
		if _, err := reg.Register("default", "", c.Net, c.Backend); err != nil {
			return err
		}
		c.Registry = reg
	}
	if c.Registry.Len() == 0 {
		return errors.New("serve: Config.Registry has no variants")
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxSessions
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = c.MaxSessions
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	return nil
}

// Server is the streaming decode service. Create with New, bind with
// Listen, run with Serve, stop with Shutdown.
type Server struct {
	cfg Config

	ln       net.Listener
	draining atomic.Bool
	sessions sync.WaitGroup // admitted sessions in flight
	sem      chan struct{}  // admission slots

	mu    sync.Mutex
	conns map[net.Conn]struct{} // open connections, for forced close

	// batchMu guards batchers, the per-plan batcher table. Frames only
	// coalesce within one compiled plan — mixing variants in a batch
	// would still be row-wise correct, but per-plan batchers keep the
	// batch loop free of per-row plan dispatch and make the variant the
	// unit of hot-swap: a swapped-out plan's batcher drains its pinned
	// sessions and is then retired.
	batchMu  sync.Mutex
	batchers map[*dnn.Plan]*planBatcher

	// poolMu guards pool, the idle decode sessions kept for reuse.
	// A decoder.Session retains its hypothesis store, token maps, and
	// arenas across Restart, so a recycled session decodes the next
	// utterance without allocating; the pool never exceeds
	// MaxSessions (a session is only returned by a handler that held
	// an admission slot). Decode sessions carry no model state —
	// scores arrive from the pinned plan's batcher — so one pool
	// serves every variant.
	poolMu sync.Mutex
	pool   []*decoder.Session

	served atomic.Int64 // sessions finished, counted before the result is sent
}

// planBatcher is one model variant's batcher plus the count of
// sessions currently pinned to its plan. refs doubles as the
// batcher's live-session signal: once a batch holds a frame from
// every pinned session nothing more can arrive, so the batcher
// flushes without waiting out the window.
type planBatcher struct {
	*batcher
	variant *registry.Variant
	refs    atomic.Int64
}

// New validates cfg, applies defaults, and returns an unbound server.
func New(cfg Config) (*Server, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	return &Server{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxSessions),
		conns:    map[net.Conn]struct{}{},
		batchers: map[*dnn.Plan]*planBatcher{},
	}, nil
}

// Registry exposes the server's model registry (for hot-swap wiring
// and startup logging).
func (s *Server) Registry() *registry.Registry { return s.cfg.Registry }

// Listen binds the server to addr ("localhost:0" picks a free port)
// and returns the resolved address. Call before Serve.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Addr returns the bound address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve runs the accept loop; it blocks until Shutdown (returning
// nil) or a listener failure. One connection is one decode session.
// Batchers start lazily with the first session pinned to each
// variant's plan.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("serve: Serve before Listen")
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return fmt.Errorf("serve: accept: %w", err)
		}
		s.track(conn, true)
		go s.handle(conn)
	}
}

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe(addr string) error {
	if _, err := s.Listen(addr); err != nil {
		return err
	}
	return s.Serve()
}

// Served reports the number of sessions completed successfully. A
// session is counted before its result is written, so a client that
// has read its result already sees itself here.
func (s *Server) Served() int64 { return s.served.Load() }

// Shutdown drains the server: the listener closes immediately (new
// connections are refused, and a session start racing the close is
// rejected with a "draining" reply), in-flight sessions run to
// completion, then every batcher flushes and stops. If ctx expires
// first, the remaining connections are closed forcibly and ctx's
// error is returned. Shutdown is idempotent only in its drain effect;
// call it once.
func (s *Server) Shutdown(ctx context.Context) error {
	// The mutex orders the drain flag against admissions: after it is
	// released, no handler can Add to the sessions WaitGroup anymore
	// (admit re-checks the flag under the same mutex), so Wait below
	// cannot race a first Add on an empty group.
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	if s.ln != nil {
		_ = s.ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.sessions.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.closeConns()
		<-done // handlers exit promptly once their conns are closed
	}
	// No session can submit anymore; stop whatever batchers remain
	// (retired ones were already stopped on their last release).
	s.batchMu.Lock()
	remaining := make([]*planBatcher, 0, len(s.batchers))
	for plan, pb := range s.batchers {
		remaining = append(remaining, pb)
		delete(s.batchers, plan)
	}
	s.batchMu.Unlock()
	for _, pb := range remaining {
		pb.stop()
	}
	return err
}

// acquireBatcher pins the variant's current plan for one session: it
// returns the plan and the (possibly just-started) batcher dedicated
// to it, with the session counted in. Release with releaseBatcher
// when the session ends. Between a hot-swap and the last pinned
// session's release, old plan and new plan each have a live batcher —
// frames never coalesce across the swap.
func (s *Server) acquireBatcher(v *registry.Variant) (*dnn.Plan, *planBatcher) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	plan := v.Plan()
	pb := s.batchers[plan]
	if pb == nil {
		pb = &planBatcher{variant: v}
		pb.batcher = newBatcher(plan, s.cfg.QueueDepth, s.cfg.MaxBatch, s.cfg.BatchWindow,
			func() int { return int(pb.refs.Load()) })
		s.batchers[plan] = pb
		go pb.run()
	}
	pb.refs.Add(1)
	return plan, pb
}

// releaseBatcher drops one session's pin. A batcher whose plan has
// been swapped out is retired once its last session releases; the
// current plan's batcher stays (idle batchers cost one parked
// goroutine).
func (s *Server) releaseBatcher(plan *dnn.Plan, pb *planBatcher) {
	s.batchMu.Lock()
	retire := pb.refs.Add(-1) == 0 && pb.variant.Plan() != plan
	if retire {
		delete(s.batchers, plan)
	}
	s.batchMu.Unlock()
	if retire {
		// No submitter exists (refs hit 0 and the plan is unreachable
		// from acquireBatcher), so stop only waits for the final flush.
		pb.stop()
	}
}

// admit claims an admission slot, or explains why it cannot. On
// success the caller owns one sessions WaitGroup count, returned with
// sessions.Done, and one sem slot, returned with freeSlot.
func (s *Server) admit() (ok bool, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false, "draining"
	}
	select {
	case s.sem <- struct{}{}:
	default:
		return false, "at capacity"
	}
	s.sessions.Add(1)
	return true, ""
}

func (s *Server) freeSlot() { <-s.sem }

func (s *Server) track(conn net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}

// takeSession returns a recycled decode session from the pool, or
// starts a fresh one, configured with dcfg — the server's Decode
// config plus any per-session additions (the handshake's adaptive
// controller). Recycling is invisible to clients: Restart is
// bit-identical to Decoder.Start with the same configuration, and a
// pooled session resets the controller at Restart, so a recycled
// adaptive session decides exactly like a fresh one.
func (s *Server) takeSession(dcfg decoder.Config) *decoder.Session {
	s.poolMu.Lock()
	var ses *decoder.Session
	if n := len(s.pool); n > 0 {
		ses = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
	}
	s.poolMu.Unlock()
	if ses != nil {
		if err := ses.Restart(dcfg); err == nil {
			return ses
		}
	}
	return s.cfg.Decoder.Start(dcfg)
}

// putSession returns a session to the pool once its connection is
// done with it (finished, failed, or abandoned mid-decode — Restart
// recovers every case).
func (s *Server) putSession(ses *decoder.Session) {
	s.poolMu.Lock()
	s.pool = append(s.pool, ses)
	s.poolMu.Unlock()
}

func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		_ = c.Close()
	}
}
