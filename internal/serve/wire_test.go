package serve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/speech"
)

// rawSession is a client that speaks the wire protocol by hand over a
// plain connection, for tests that must control the exact bytes.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawSession{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (r *rawSession) write(b []byte) {
	r.t.Helper()
	if _, err := r.conn.Write(b); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawSession) line(s string) { r.write([]byte(s + "\n")) }

func (r *rawSession) reply() Reply {
	r.t.Helper()
	line, err := r.br.ReadBytes('\n')
	if err != nil {
		r.t.Fatalf("reading reply: %v", err)
	}
	var rep Reply
	if err := json.Unmarshal(line, &rep); err != nil {
		r.t.Fatalf("reply %q: %v", line, err)
	}
	return rep
}

// frameRecord encodes one binary frame record with the given count
// header (normally len(frame)).
func frameRecord(count uint32, frame []float64) []byte {
	rec := []byte{FrameTag}
	rec = binary.LittleEndian.AppendUint32(rec, count)
	for _, v := range frame {
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(v))
	}
	return rec
}

// TestBinaryFramesMatchJSON streams one utterance twice: as raw JSON
// frame lines over a plain connection, and through ClientSession,
// which negotiates binary records. Both results must be bit-identical
// to each other and to the local decode.
func TestBinaryFramesMatchJSON(t *testing.T) {
	f := newFixture(t)
	_, addr, stop := f.start(t, nil)
	defer stop()

	frames, want := f.reference(f.utts[2])

	raw := dialRaw(t, addr)
	raw.line(`{"op":"start","id":"json"}`)
	ready := raw.reply()
	if ready.Event != EventReady || ready.FrameEncoding != FrameEncodingF64LE {
		t.Fatalf("ready = %+v, want ready offering %q", ready, FrameEncodingF64LE)
	}
	for _, fr := range frames {
		b, err := json.Marshal(Request{Op: OpFrame, Data: fr})
		if err != nil {
			t.Fatal(err)
		}
		raw.write(append(b, '\n'))
	}
	raw.line(`{"op":"finish"}`)
	viaJSON := raw.reply()

	cs, err := Dial(addr, SessionOptions{ID: "binary"})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if !cs.binary {
		t.Fatal("ClientSession did not take up the offered binary encoding")
	}
	for _, fr := range frames {
		if err := cs.PushFrame(fr); err != nil {
			t.Fatal(err)
		}
	}
	viaBinary, _, err := cs.Finish()
	if err != nil {
		t.Fatal(err)
	}

	for _, got := range []struct {
		name string
		rep  Reply
	}{{"json", viaJSON}, {"binary", viaBinary}} {
		if got.rep.Event != EventResult || got.rep.OK != want.OK ||
			fmt.Sprint(got.rep.Words) != fmt.Sprint(want.Words) ||
			math.Float64bits(got.rep.Cost) != math.Float64bits(want.Cost) ||
			got.rep.Frames != len(frames) {
			t.Errorf("%s result %+v, want ok=%v words=%v cost=%v frames=%d",
				got.name, got.rep, want.OK, want.Words, want.Cost, len(frames))
		}
	}
}

// TestClientFallsBackToJSONFrames pins the negotiation's other side:
// against a server whose ready reply offers no frame encoding,
// ClientSession sends JSON frame lines.
func TestClientFallsBackToJSONFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	frames := [][]float64{{1, 2.5, -3}, {0.1, 1e-300, 7}}
	got := make(chan []Request, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		enc := json.NewEncoder(conn)
		var reqs []Request
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				break
			}
			var req Request
			if err := json.Unmarshal(line, &req); err != nil {
				break // not a JSON line: fails the comparison below
			}
			reqs = append(reqs, req)
			if req.Op == OpStart {
				_ = enc.Encode(Reply{Event: EventReady, Model: "old"})
			}
			if req.Op == OpFinish {
				_ = enc.Encode(Reply{Event: EventResult, OK: true})
				break
			}
		}
		got <- reqs
	}()

	cs, err := Dial(ln.Addr().String(), SessionOptions{ID: "fallback"})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	for _, fr := range frames {
		if err := cs.PushFrame(fr); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := cs.Finish(); err != nil {
		t.Fatal(err)
	}
	reqs := <-got
	if len(reqs) != len(frames)+2 {
		t.Fatalf("stub server decoded %d JSON messages, want %d: %+v", len(reqs), len(frames)+2, reqs)
	}
	for i, fr := range frames {
		req := reqs[i+1]
		if req.Op != OpFrame || fmt.Sprint([]float64(req.Data)) != fmt.Sprint(fr) {
			t.Errorf("message %d = %+v, want JSON frame %v", i+1, req, fr)
		}
	}
}

// TestNonFiniteFrameRejected checks the wire boundary in both
// encodings: a NaN or ±Inf feature ends the session with an error
// naming the feature, and counts in serve.bad_frames.
func TestNonFiniteFrameRejected(t *testing.T) {
	obs.Enable()
	f := newFixture(t)
	_, addr, stop := f.start(t, nil)
	defer stop()
	frames := speech.SpliceAll(f.utts[0].Frames, f.topo.Context)

	cases := []struct {
		name string
		send func(r *rawSession) // sends one good frame, then a bad one
		want string
	}{
		{"binary NaN", func(r *rawSession) {
			bad := append([]float64(nil), frames[1]...)
			bad[3] = math.NaN()
			r.write(frameRecord(uint32(len(frames[0])), frames[0]))
			r.write(frameRecord(uint32(len(bad)), bad))
		}, "frame 1: feature 3 is NaN"},
		{"binary -Inf", func(r *rawSession) {
			bad := append([]float64(nil), frames[1]...)
			bad[0] = math.Inf(-1)
			r.write(frameRecord(uint32(len(frames[0])), frames[0]))
			r.write(frameRecord(uint32(len(bad)), bad))
		}, "frame 1: feature 0 is -Inf"},
		{"json overflow", func(r *rawSession) {
			b, _ := json.Marshal(Request{Op: OpFrame, Data: frames[0]})
			r.write(append(b, '\n'))
			nums := make([]string, len(frames[1]))
			for i, v := range frames[1] {
				nums[i] = fmt.Sprint(v)
			}
			nums[5] = "1e999"
			r.line(`{"op":"frame","data":[` + strings.Join(nums, ",") + `]}`)
		}, "frame 1: feature 5 is +Inf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := obsBadFrames.Value()
			r := dialRaw(t, addr)
			r.line(`{"op":"start"}`)
			if rep := r.reply(); rep.Event != EventReady {
				t.Fatalf("handshake: %+v", rep)
			}
			tc.send(r)
			rep := r.reply()
			if rep.Event != EventError || !strings.Contains(rep.Reason, tc.want) {
				t.Errorf("reply %+v, want error containing %q", rep, tc.want)
			}
			if got := obsBadFrames.Value() - before; got != 1 {
				t.Errorf("serve.bad_frames moved by %d, want 1", got)
			}
		})
	}
}

// TestBadFrameRecords pins the binary record's framing errors: a
// count that is not the model's InDim is refused before any payload
// is read, a record cut short is refused as truncated, and a record
// before the start handshake is refused like any non-start op.
func TestBadFrameRecords(t *testing.T) {
	f := newFixture(t)
	_, addr, stop := f.start(t, nil)
	defer stop()
	inDim := f.net.InDim()

	cases := []struct {
		name, want string
		start      bool
		send       []byte
	}{
		{"count below InDim", "frame record has 3 features, model wants", true, frameRecord(3, make([]float64, 3))},
		{"count 2^32-1", "frame record has 4294967295 features", true, frameRecord(math.MaxUint32, nil)},
		{"short payload", "truncated frame record", true, frameRecord(uint32(inDim), make([]float64, inDim))[:20]},
		{"record before start", `first message must be "start", got "frame"`, false, frameRecord(uint32(inDim), make([]float64, inDim))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := dialRaw(t, addr)
			if tc.start {
				r.line(`{"op":"start"}`)
				if rep := r.reply(); rep.Event != EventReady {
					t.Fatalf("handshake: %+v", rep)
				}
			}
			r.write(tc.send)
			if tcp, ok := r.conn.(*net.TCPConn); ok {
				_ = tcp.CloseWrite()
			}
			rep := r.reply()
			if rep.Event != EventError || !strings.Contains(rep.Reason, tc.want) {
				t.Errorf("reply %+v, want error containing %q", rep, tc.want)
			}
		})
	}
}

// TestSlotFreedBeforeResult pins the reply ordering: by the time a
// client has read its result, the server has freed the session's
// admission slot and counted it served. At MaxSessions 1, a Dial made
// right after Finish returns is admitted with no retry. The sessions
// are short (zero or one frame), so 500 rounds take tens of
// milliseconds; with the slot freed after the reply instead, some
// round loses the race in practically every run.
func TestSlotFreedBeforeResult(t *testing.T) {
	f := newFixture(t)
	srv, addr, stop := f.start(t, func(c *Config) { c.MaxSessions = 1 })
	defer stop()
	frames := speech.SpliceAll(f.utts[0].Frames, f.topo.Context)

	cs, err := Dial(addr, SessionOptions{ID: "first"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 500; i++ {
		for _, fr := range frames[:i%2] {
			if err := cs.PushFrame(fr); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := cs.Finish(); err != nil {
			t.Fatal(err)
		}
		if got := srv.Served(); got != int64(i) {
			t.Errorf("after result %d, Served() = %d", i, got)
		}
		next, err := Dial(addr, SessionOptions{ID: fmt.Sprint("next", i)})
		var rej *RejectedError
		if errors.As(err, &rej) {
			t.Fatalf("session %d after a finished one rejected: %v", i+1, err)
		}
		if err != nil {
			t.Fatal(err)
		}
		cs.Close()
		cs = next
	}
	cs.Close()
}

// TestFeaturesDecodeLikeEncodingJSON pins the JSON frame decoder to
// encoding/json: every array of numbers decodes to the same bits, any
// other element is refused, and an overflowing number becomes ±Inf
// for the finite check to name.
func TestFeaturesDecodeLikeEncodingJSON(t *testing.T) {
	for _, in := range []string{
		`[1,2.5,-3e-5]`, `[ 0.1 , 1e-400 ,4.9e-324]`, `[-0]`, `[1e308, 123456789012345678901234567890]`, `[]`, `null`,
	} {
		var want []float64
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatal(err)
		}
		var got Features
		if err := json.Unmarshal([]byte(in), &got); err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("%s: got %v, want %v", in, got, want)
			continue
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s[%d]: got %v, want %v", in, i, got[i], want[i])
			}
		}
	}
	for _, in := range []string{`["1"]`, `[null]`, `[[1]]`, `[{"a":1,"b":2}]`, `[true]`, `"1,2"`, `{}`} {
		var got Features
		if err := json.Unmarshal([]byte(in), &got); err == nil {
			t.Errorf("%s: decoded to %v, want an error", in, got)
		}
	}
	var got Features
	if err := json.Unmarshal([]byte(`[1,-1e999,1e999]`), &got); err != nil || !math.IsInf(got[1], -1) || !math.IsInf(got[2], 1) {
		t.Errorf("overflow: got %v, %v; want [1 -Inf +Inf]", got, err)
	}
}
