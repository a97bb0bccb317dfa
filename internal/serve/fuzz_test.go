package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/decoder"
)

// memConn is a net.Conn whose read side is a fixed byte stream, ending
// in EOF, and whose write side collects the server's replies.
type memConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (m *memConn) Read(p []byte) (int, error)       { return m.in.Read(p) }
func (m *memConn) Write(p []byte) (int, error)      { return m.out.Write(p) }
func (m *memConn) Close() error                     { return nil }
func (m *memConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (m *memConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (m *memConn) SetDeadline(time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(time.Time) error  { return nil }
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

// fuzzAllocSlack bounds what one fuzzed session may allocate beyond a
// small multiple of its input: a header count that sized a buffer
// before being checked would blow through it.
const fuzzAllocSlack = 4 << 20

// FuzzServeFrames drives one connection's reader with a valid start
// line followed by arbitrary bytes: binary frame records, JSON lines,
// or garbage. Invariants: no panic; the replies are ready, then
// exactly one terminal reply (result or error), then nothing; and the
// session allocates no more than its input's size allows.
func FuzzServeFrames(f *testing.F) {
	fx := newFixture(f)
	srv, err := New(Config{
		Net:         fx.net.Clone(),
		Decoder:     fx.dec,
		Decode:      decoder.Config{Beam: 15, AcousticScale: 1},
		IdleTimeout: 5 * time.Second,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	start := []byte(`{"op":"start","id":"fuzz"}` + "\n")

	f.Fuzz(func(t *testing.T, data []byte) {
		conn := &memConn{in: bytes.NewReader(append(append([]byte(nil), start...), data...))}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.handle(conn)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > fuzzAllocSlack+64*uint64(len(data)) {
			t.Errorf("session over %d input bytes allocated %d bytes", len(data), grew)
		}

		sc := bufio.NewScanner(&conn.out)
		var events []string
		for sc.Scan() {
			var rep Reply
			if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
				t.Fatalf("reply %q is not JSON: %v", sc.Bytes(), err)
			}
			events = append(events, rep.Event)
		}
		if len(events) != 2 || events[0] != EventReady ||
			(events[1] != EventResult && events[1] != EventError) {
			t.Fatalf("replies %v, want [ready result|error]", events)
		}
	})
}
