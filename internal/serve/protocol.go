package serve

// Wire protocol: one TCP connection per decode session. Control
// messages are newline-delimited JSON in both directions
// (encoding/json values, one per line); acoustic frames may instead
// travel as binary records. The client sends Requests, the server
// answers with Replies. docs/SERVING.md is the normative description.
//
// Client → server:
//
//	{"op":"start","id":"utt-3","model":"tiny-sparse","deadline_ms":30000,"partial_every":8}
//	{"op":"start","id":"utt-4","control":{"target_occupancy":32,"min_beam":8,"max_beam":15}}
//	{"op":"frame","data":[...]}        // spliced features, len = InDim
//	0x00 | count uint32 LE | count × float64 LE   // the same frame, binary
//	{"op":"finish"}
//
// A message starting with the byte FrameTag (0x00, which no JSON line
// can start with) is a binary frame record; anything else is a JSON
// line. The server offers the binary encoding in its ready reply
// (frame_encoding "f64le"); ClientSession uses it when offered and
// falls back to JSON frame lines otherwise. JSON frames stay valid
// for debugging. Records carry float64, not float32, so a served
// frame reaches the DNN with exactly the bits a local decode uses.
//
// Server → client:
//
//	{"event":"ready","session":"utt-3","model":"tiny-sparse","frame_encoding":"f64le"}
//	{"event":"reject","reason":"...","retry_after_ms":250}
//	{"event":"reject","reason":"unknown model ...","available":["a","b"],"permanent":true}
//	{"event":"reject","reason":"control: ...","permanent":true}
//	{"event":"partial","words":[...]}  // every partial_every frames
//	{"event":"result","ok":true,"words":[...],"cost":...,"frames":42}
//	{"event":"error","reason":"..."}

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/control"
)

// Request ops.
const (
	OpStart  = "start"
	OpFrame  = "frame"
	OpFinish = "finish"
)

// Binary frame records: FrameTag, a uint32 little-endian feature
// count, then count float64 values, each little-endian IEEE 754 bits.
const (
	FrameTag       = 0x00
	frameHeaderLen = 5 // tag plus count
	// FrameEncodingF64LE is the ready reply's frame_encoding value
	// offering binary frame records.
	FrameEncodingF64LE = "f64le"
)

// Reply events.
const (
	EventReady   = "ready"
	EventReject  = "reject"
	EventPartial = "partial"
	EventResult  = "result"
	EventError   = "error"
)

// Request is one client → server message.
type Request struct {
	Op string `json:"op"`

	// start fields
	ID string `json:"id,omitempty"` // client-chosen session label, echoed in ready
	// Model names the registered variant to decode with ("" = the
	// server's default variant). An unknown name is answered with a
	// structured reject listing the available variants.
	Model string `json:"model,omitempty"`
	// DeadlineMS bounds the whole session in wall-clock milliseconds
	// from admission (0 = the server's default deadline).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// PartialEvery asks for a partial hypothesis event every N frames
	// (0 = no partials).
	PartialEvery int `json:"partial_every,omitempty"`
	// Control, when present, decodes this session under the adaptive
	// beam controller with the given configuration (internal/control;
	// docs/ADAPTIVE.md specifies the law). An invalid configuration is
	// answered with a permanent structured reject before admission.
	Control *control.Config `json:"control,omitempty"`

	// frame field: one spliced feature vector, len = network InDim.
	Data Features `json:"data,omitempty"`
}

// Features is a JSON frame's feature vector. It decodes each array
// element with strconv.ParseFloat, exactly as encoding/json does, but
// keeps a number that overflows to ±Inf instead of failing the whole
// message, so the server can reject the frame by feature index like a
// non-finite binary record.
type Features []float64

// UnmarshalJSON implements json.Unmarshaler. json.Unmarshal validates
// the syntax before calling it, so splitting the array on commas is
// sound: a number holds no comma, and the first piece of any
// non-number element (string, array, object, literal) is not a float.
func (f *Features) UnmarshalJSON(b []byte) error {
	b = bytes.TrimSpace(b)
	if string(b) == "null" {
		*f = nil
		return nil
	}
	if len(b) < 2 || b[0] != '[' {
		return fmt.Errorf("data: want an array of numbers")
	}
	out := (*f)[:0]
	if body := bytes.TrimSpace(b[1 : len(b)-1]); len(body) > 0 {
		for i, tok := range bytes.Split(body, []byte{','}) {
			v, err := strconv.ParseFloat(string(bytes.TrimSpace(tok)), 64)
			if err != nil && !errors.Is(err, strconv.ErrRange) {
				return fmt.Errorf("data[%d]: not a number", i)
			}
			out = append(out, v)
		}
	}
	*f = out
	return nil
}

// Reply is one server → client message.
type Reply struct {
	Event   string `json:"event"`
	Session string `json:"session,omitempty"` // ready: echoed start ID
	Model   string `json:"model,omitempty"`   // ready: resolved variant name
	Reason  string `json:"reason,omitempty"`  // reject / error detail
	// FrameEncoding, on ready, names the binary frame record format
	// the server accepts (FrameEncodingF64LE). Empty means JSON frame
	// lines only.
	FrameEncoding string `json:"frame_encoding,omitempty"`
	// RetryAfterMS accompanies capacity/draining rejects: the client
	// should back off at least this long before redialing (admission
	// backpressure). Unknown-model rejects omit it — retrying cannot
	// help.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Available accompanies unknown-model rejects: the variant names
	// this server can decode with.
	Available []string `json:"available,omitempty"`
	// Permanent marks a reject that retrying cannot fix (unknown model,
	// invalid controller config) — the client should repair the request
	// instead of backing off.
	Permanent bool `json:"permanent,omitempty"`

	// partial / result payload
	Words  []int   `json:"words,omitempty"`
	Cost   float64 `json:"cost,omitempty"`
	OK     bool    `json:"ok,omitempty"`
	Frames int     `json:"frames,omitempty"`
}
