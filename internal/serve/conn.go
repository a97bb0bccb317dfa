package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"time"

	"repro/internal/control"
	"repro/internal/decoder"
	"repro/internal/obs"
	"repro/internal/registry"
)

// session is the per-connection state of one streaming decode.
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	enc  *json.Encoder

	// Pinned at admission: the model variant's compiled plan and its
	// batcher. The pin outlives hot-swaps — this session keeps scoring
	// against exactly these weights until it ends.
	pb       *planBatcher
	inDim    int
	outDim   int
	frameCtr *obs.Counter // per-model frame counter child

	// frame and raw are the binary frame record buffers, sized by the
	// pinned plan's InDim at admission (nil before). Records decode
	// into them in place: score blocks until the batch holding the
	// frame is done, so the next read cannot overwrite a frame still
	// in use.
	frame []float64
	raw   []byte

	// dcfg is the server's decode configuration plus this session's
	// adaptive controller, if the handshake requested one.
	dcfg decoder.Config

	ctx    context.Context
	cancel context.CancelFunc
}

// maxLineBytes bounds one JSON message, so a peer that never sends a
// newline cannot grow the read buffer without limit.
const maxLineBytes = 4 << 20

// handle runs one connection: admission, then the start/frame/finish
// message loop. Every exit path sends a terminal reply (reject,
// result, or error) unless the connection itself is gone.
func (s *Server) handle(conn net.Conn) {
	defer s.track(conn, false)
	defer conn.Close()

	c := &session{
		srv:  s,
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}
	c.enc = json.NewEncoder(c.bw)

	// The start message is read under the idle timeout so a dialed-
	// but-silent connection cannot hold a handler goroutine forever.
	req, err := c.read()
	if err != nil {
		return
	}
	if req.Op != OpStart {
		_ = c.reply(Reply{Event: EventError, Reason: fmt.Sprintf("first message must be %q, got %q", OpStart, req.Op)})
		obsErrors.Inc()
		return
	}

	// Resolve the model before spending an admission slot: an unknown
	// model is a client error, not load, so the reject is structured
	// (the servable variant names ride along) and carries no
	// retry-after — backing off will not make the variant exist.
	variant, ok := s.cfg.Registry.Resolve(req.Model)
	if !ok {
		obsRejects.Inc()
		_ = c.reply(Reply{
			Event:     EventReject,
			Reason:    fmt.Sprintf("unknown model %q", req.Model),
			Available: s.cfg.Registry.Names(),
			Permanent: true,
		})
		return
	}

	// Likewise the controller config: invalid parameters are a client
	// error, validated before spending an admission slot, and the
	// reject is permanent — resending the same config cannot succeed.
	c.dcfg = s.cfg.Decode
	if req.Control != nil {
		ctl, err := control.New(*req.Control)
		if err != nil {
			obsRejects.Inc()
			_ = c.reply(Reply{Event: EventReject, Reason: err.Error(), Permanent: true})
			return
		}
		c.dcfg.Policy = ctl
	}

	ok, reason := s.admit()
	if !ok {
		obsRejects.Inc()
		_ = c.reply(Reply{
			Event:        EventReject,
			Reason:       reason,
			RetryAfterMS: s.cfg.RetryAfter.Milliseconds(),
		})
		return
	}
	// The drain WaitGroup is held until the final reply is flushed, so
	// Shutdown still delivers every result. Everything else the session
	// holds is handed back by decode, before that reply is written.
	defer s.sessions.Done()

	sp := obsRequestTime.Start()
	if final, ok := c.decode(req, variant); ok {
		if err := c.reply(final); err != nil {
			obsErrors.Inc()
		}
	}
	sp.Stop()
}

// decode runs an admitted session: it pins the variant's plan, sends
// ready, and streams frames until finish or failure. Before it
// returns it hands back the decode session, the plan pin and the
// admission slot, and on success counts the session served. Only
// then does the caller write the returned result, so a client that
// has read its result can redial at once and be admitted, and Served
// already counts it. ok is false when the session failed; its error
// reply has been sent.
func (c *session) decode(req Request, variant *registry.Variant) (final Reply, ok bool) {
	s := c.srv
	defer s.freeSlot()

	plan, pb := s.acquireBatcher(variant)
	defer s.releaseBatcher(plan, pb)
	c.pb = pb
	c.inDim = plan.InDim()
	c.outDim = plan.OutDim()
	c.frame = make([]float64, c.inDim)
	c.raw = make([]byte, 8*c.inDim)
	c.frameCtr = obsModelFrames.With(variant.Name())

	obsSessionsTotal.Inc()
	obsModelSessions.With(variant.Name()).Inc()
	obsSessionsActive.Add(1)
	defer obsSessionsActive.Add(-1)

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	c.ctx, c.cancel = context.WithTimeout(context.Background(), deadline)
	defer c.cancel()

	ready := Reply{Event: EventReady, Session: req.ID, Model: variant.Name(), FrameEncoding: FrameEncodingF64LE}
	if err := c.reply(ready); err != nil {
		obsErrors.Inc()
		return Reply{}, false
	}

	partialEvery := req.PartialEvery
	dec := s.takeSession(c.dcfg)
	defer s.putSession(dec)
	scores := make([]float64, c.outDim)
	frames := 0
	for {
		req, err := c.read()
		if err != nil {
			c.fail(err)
			return Reply{}, false
		}
		switch req.Op {
		case OpFrame:
			if len(req.Data) != c.inDim {
				c.fail(fmt.Errorf("frame has %d features, model wants %d", len(req.Data), c.inDim))
				return Reply{}, false
			}
			if i := nonFinite(req.Data); i >= 0 {
				obsBadFrames.Inc()
				c.fail(fmt.Errorf("frame %d: feature %d is %v, features must be finite", frames, i, req.Data[i]))
				return Reply{}, false
			}
			// One in-flight frame per session: score (possibly batched
			// with other sessions' frames on the same pinned plan), then
			// advance the search.
			if err := c.pb.score(c.ctx, req.Data, scores); err != nil {
				c.fail(err)
				return Reply{}, false
			}
			if err := dec.PushFrame(scores); err != nil {
				c.fail(err)
				return Reply{}, false
			}
			frames++
			c.frameCtr.Inc()
			if partialEvery > 0 && frames%partialEvery == 0 {
				words, _ := dec.Partial()
				if err := c.reply(Reply{Event: EventPartial, Words: words, Frames: frames}); err != nil {
					obsErrors.Inc()
					return Reply{}, false
				}
			}
		case OpFinish:
			res := dec.Finish()
			s.served.Add(1)
			return Reply{
				Event:  EventResult,
				OK:     res.OK,
				Words:  res.Words,
				Cost:   res.Cost,
				Frames: frames,
			}, true
		default:
			c.fail(fmt.Errorf("unknown op %q", req.Op))
			return Reply{}, false
		}
	}
}

// read returns the next client message under the idle timeout and
// the session deadline, mapping expiry to a deadline error.
func (c *session) read() (Request, error) {
	limit := time.Now().Add(c.srv.cfg.IdleTimeout)
	if c.ctx != nil {
		if dl, ok := c.ctx.Deadline(); ok && dl.Before(limit) {
			limit = dl
		}
	}
	_ = c.conn.SetReadDeadline(limit)
	req, err := c.next()
	if err != nil {
		if c.ctx != nil && c.ctx.Err() != nil {
			return req, context.DeadlineExceeded
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return req, fmt.Errorf("idle timeout: %w", os.ErrDeadlineExceeded)
		}
		return req, err
	}
	return req, nil
}

// next decodes one message: a binary frame record if it starts with
// FrameTag, otherwise a JSON line (blank lines are skipped).
func (c *session) next() (Request, error) {
	for {
		tag, err := c.br.Peek(1)
		if err != nil {
			return Request{}, err
		}
		if tag[0] == FrameTag {
			return c.readRecord()
		}
		line, err := c.readLine()
		if len(bytes.TrimSpace(line)) == 0 {
			if err != nil {
				return Request{}, err
			}
			continue
		}
		if err != nil && err != io.EOF {
			return Request{}, err
		}
		// A last line without its newline still counts, as it did
		// for a streaming JSON decoder.
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			return Request{}, fmt.Errorf("bad request: %w", err)
		}
		return req, nil
	}
}

// readLine reads up to and including the next newline, refusing a
// line longer than maxLineBytes.
func (c *session) readLine() ([]byte, error) {
	var line []byte
	for {
		frag, err := c.br.ReadSlice('\n')
		if len(line)+len(frag) > maxLineBytes {
			return nil, fmt.Errorf("request line longer than %d bytes", maxLineBytes)
		}
		line = append(line, frag...)
		if err != bufio.ErrBufferFull {
			return line, err
		}
	}
}

// readRecord decodes one binary frame record into the session's frame
// buffer and returns it as a frame request. The header's count is
// checked against InDim before any payload is read, so a peer's
// count never sizes anything. Before admission there is no buffer:
// the record is returned unread and the caller refuses it by op.
func (c *session) readRecord() (Request, error) {
	req := Request{Op: OpFrame}
	if c.frame == nil {
		return req, nil
	}
	hdr, err := c.br.Peek(frameHeaderLen)
	if err != nil {
		return req, truncated(err)
	}
	if n := binary.LittleEndian.Uint32(hdr[1:]); uint64(n) != uint64(len(c.frame)) {
		return req, fmt.Errorf("frame record has %d features, model wants %d", n, len(c.frame))
	}
	_, _ = c.br.Discard(frameHeaderLen)
	if _, err := io.ReadFull(c.br, c.raw); err != nil {
		return req, truncated(err)
	}
	for i := range c.frame {
		c.frame[i] = math.Float64frombits(binary.LittleEndian.Uint64(c.raw[8*i:]))
	}
	req.Data = c.frame
	return req, nil
}

// truncated names a record cut short by the end of the stream.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("truncated frame record: %w", io.ErrUnexpectedEOF)
	}
	return err
}

// nonFinite returns the index of the first NaN or ±Inf feature, or
// -1 if every feature is finite.
func nonFinite(x []float64) int {
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// fail reports a session-fatal condition to the client and the
// metrics, classifying deadline/idle expiry separately from protocol
// and I/O errors.
func (c *session) fail(err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded) {
		obsDeadlineExceeded.Inc()
	} else {
		obsErrors.Inc()
	}
	_ = c.reply(Reply{Event: EventError, Reason: err.Error()})
}

// reply writes one reply line and flushes it to the socket. The
// write deadline keeps a dead peer from pinning the handler (and,
// during drain, the whole shutdown) on a full send buffer.
func (c *session) reply(r Reply) error {
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.srv.cfg.IdleTimeout))
	if err := c.enc.Encode(r); err != nil {
		return err
	}
	return c.bw.Flush()
}
