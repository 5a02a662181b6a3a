package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/report"
)

// goldenReport exercises every report field, including the optional
// verification block with rejecting nodes and sorted reasons.
func goldenReport() *report.SessionReport {
	return &report.SessionReport{
		Generation:      41,
		Mode:            "repair",
		ActiveScheme:    "planarity",
		Updates:         3,
		Dirty:           2,
		Verified:        7,
		FullVerify:      true,
		Accepted:        false,
		CacheGeneration: 12,
		RepairFallback:  "reprove",
		ProveErr:        "",
		Verification: &report.Report{
			Accepted:    false,
			MaxCertBits: 96,
			AvgCertBits: 64.5,
			Messages:    14,
			MaxMsgBits:  96,
			Rejecting:   []graph.ID{-3, 9},
			Reasons:     map[graph.ID]string{-3: "left", 9: "cycle"},
		},
	}
}

// goldenFrames pins the exact bytes of every frame kind. The format is
// FROZEN: if one of these fails after a refactor, the refactor broke the
// wire protocol — fix the code, never the fixture.
var goldenFrames = []struct {
	name   string
	encode func() ([]byte, error)
	want   string // hex
}{
	{
		name: "update_batch",
		encode: func() ([]byte, error) {
			return EncodeUpdateBatch(ModeQueue, []graph.Update{
				{Op: graph.OpAddEdge, A: 1, B: 2},
				{Op: graph.OpRemoveEdge, A: 3, B: -4},
				{Op: graph.OpAddNode, A: 5},
			})
		},
		want: "504357460101080000008a83b2a042c0a0e21e0fc250",
	},
	{
		name: "batch_ack",
		encode: func() ([]byte, error) {
			return EncodeBatchAck(&BatchAck{Queued: 3, Pending: 7, Elapsed: 1234567, Report: goldenReport()})
		},
		want: "504357460102450000005c1ac8930b0fab2d6878d4879c995c185a5c849706c616e61726974790b0a0fc2607dc995c1c9bdd994087c080a0400000000000270f80283a2c8283a1c6c6566741641d6379636c65",
	},
	{
		name: "batch_ack_queue",
		encode: func() ([]byte, error) {
			return EncodeBatchAck(&BatchAck{Queued: 8, Pending: 24})
		},
		want: "50435746010204000000ad5565161205c000",
	},
	{
		name: "event",
		encode: func() ([]byte, error) {
			return EncodeEvent(42, goldenReport())
		},
		want: "5043574601034100000090532ea61aa1a90f3932b830b4b9092e0d8c2dcc2e4d2e8f216141f84c0fb932b83937bb32810f8101408000000000004e1f005074590507438d8cacce82c83ac6f2c6d8ca",
	},
	{
		name: "hello",
		encode: func() ([]byte, error) {
			return EncodeHello(Hello{Subscription: 7, Version: 99, ResumeFrom: 90, Reset: true})
		},
		want: "504357460104050000008cd5c7be0f8f8c7b50",
	},
	{
		name:   "ack",
		encode: func() ([]byte, error) { return EncodeAck(7, 99) },
		want:   "50435746010503000000a0d508ac0f8f8c",
	},
	{
		name:   "nack",
		encode: func() ([]byte, error) { return EncodeNack(7, 98, "stale") },
		want:   "5043574601060900000068b197b90f8f883ae6e8c2d8ca",
	},
	{
		name:   "error",
		encode: func() ([]byte, error) { return EncodeError(503, "busy") },
		want:   "5043574601070700000083aef6f027ee1c62757379",
	},
}

func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames {
		t.Run(g.name, func(t *testing.T) {
			frame, err := g.encode()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got := hex.EncodeToString(frame)
			if got != g.want {
				t.Fatalf("frame bytes changed — the wire format is frozen\n got: %s\nwant: %s", got, g.want)
			}
		})
	}
}

func TestGoldenFramesParse(t *testing.T) {
	// Every golden fixture must parse back from its pinned hex alone, so
	// the fixtures stay decodable even if every encoder changes.
	for _, g := range goldenFrames {
		t.Run(g.name, func(t *testing.T) {
			raw, err := hex.DecodeString(g.want)
			if err != nil {
				t.Fatalf("bad fixture hex: %v", err)
			}
			kind, payload, n, err := ParseFrame(raw)
			if err != nil {
				t.Fatalf("ParseFrame: %v", err)
			}
			if n != len(raw) {
				t.Fatalf("consumed %d of %d bytes", n, len(raw))
			}
			if err := decodeByKind(kind, payload); err != nil {
				t.Fatalf("decode %s: %v", kind, err)
			}
		})
	}
}

// decodeByKind routes a payload to its kind's decoder.
func decodeByKind(kind Kind, payload []byte) error {
	switch kind {
	case KindUpdateBatch:
		_, _, err := DecodeUpdateBatch(payload, nil)
		return err
	case KindBatchAck:
		_, err := DecodeBatchAck(payload)
		return err
	case KindEvent:
		_, _, err := DecodeEvent(payload)
		return err
	case KindHello:
		_, err := DecodeHello(payload)
		return err
	case KindAck:
		_, _, err := DecodeAck(payload)
		return err
	case KindNack:
		_, _, _, err := DecodeNack(payload)
		return err
	case KindError:
		_, _, err := DecodeError(payload)
		return err
	}
	return errors.New("unknown kind")
}

func TestFrameHeader(t *testing.T) {
	frame, err := AppendFrame(nil, KindHello, []byte{0xab, 0xcd})
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != HeaderSize+2 {
		t.Fatalf("frame length %d, want %d", len(frame), HeaderSize+2)
	}
	if string(frame[:4]) != "PCWF" {
		t.Fatalf("magic %q", frame[:4])
	}
	if frame[4] != Version {
		t.Fatalf("version %d", frame[4])
	}
	if Kind(frame[5]) != KindHello {
		t.Fatalf("kind %d", frame[5])
	}
}

func TestAppendFrameTooLarge(t *testing.T) {
	if _, err := AppendFrame(nil, KindEvent, make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// TestFrameCorruption mirrors internal/wal's battery: every single-byte
// flip and every truncation of every golden frame must surface an error
// from ParseFrame or the payload decoder — never a panic, never silent
// acceptance of different bytes as the same record.
func TestFrameCorruption(t *testing.T) {
	for _, g := range goldenFrames {
		frame, err := g.encode()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(g.name+"/bitflip", func(t *testing.T) {
			for i := range frame {
				mut := bytes.Clone(frame)
				mut[i] ^= 0x20
				kind, payload, _, err := ParseFrame(mut)
				if err != nil {
					continue // header or checksum caught it
				}
				// A flip the CRC cannot catch would need a second flip in the
				// CRC field itself; a single flip always errors.
				t.Errorf("byte %d flip parsed cleanly (kind %s, %d payload bytes)", i, kind, len(payload))
			}
		})
		t.Run(g.name+"/truncate", func(t *testing.T) {
			for n := 0; n < len(frame); n++ {
				if _, _, _, err := ParseFrame(frame[:n]); !errors.Is(err, ErrTruncated) {
					t.Errorf("prefix %d: err = %v, want ErrTruncated", n, err)
				}
			}
		})
	}
}

// TestPayloadCorruption flips and truncates the decoded payloads
// directly (as if the CRC had been forged) and requires the payload
// decoders to fail or succeed without panicking or over-allocating.
func TestPayloadCorruption(t *testing.T) {
	for _, g := range goldenFrames {
		frame, err := g.encode()
		if err != nil {
			t.Fatal(err)
		}
		kind, payload, _, err := ParseFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(g.name, func(t *testing.T) {
			for n := 0; n < len(payload); n++ {
				_ = decodeByKind(kind, payload[:n])
			}
			for i := range payload {
				mut := bytes.Clone(payload)
				mut[i] ^= 0x20
				_ = decodeByKind(kind, mut)
			}
		})
	}
}

func TestParseFrameErrors(t *testing.T) {
	good, err := EncodeAck(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"bad_magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		{"bad_version", func(b []byte) []byte { b[4] = 99; return b }, ErrBadVersion},
		{"bad_kind_zero", func(b []byte) []byte { b[5] = 0; return b }, ErrBadKind},
		{"bad_kind_high", func(b []byte) []byte { b[5] = 200; return b }, ErrBadKind},
		{"too_large", func(b []byte) []byte { b[6], b[7], b[8], b[9] = 0xff, 0xff, 0xff, 0x7f; return b }, ErrTooLarge},
		{"short_payload", func(b []byte) []byte { b[6] = byte(len(b)) - HeaderSize + 1; return b }, ErrTruncated},
		{"bad_crc", func(b []byte) []byte { b[10] ^= 0xff; return b }, ErrChecksum},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, err := ParseFrame(tc.mut(bytes.Clone(good))); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestUpdateBatchRoundTrip(t *testing.T) {
	ups := []graph.Update{
		{Op: graph.OpAddNode, A: 0},
		{Op: graph.OpAddNode, A: -1},
		{Op: graph.OpAddEdge, A: 1, B: -2},
		{Op: graph.OpRemoveEdge, A: 1 << 40, B: -(1 << 40)},
		{Op: graph.OpAddEdge, A: (1 << 61) - 1, B: -(1 << 61)},
	}
	for _, mode := range []BatchMode{ModeApply, ModeQueue} {
		frame, err := EncodeUpdateBatch(mode, ups)
		if err != nil {
			t.Fatal(err)
		}
		kind, payload, n, err := ParseFrame(frame)
		if err != nil || kind != KindUpdateBatch || n != len(frame) {
			t.Fatalf("parse: kind %v n %d err %v", kind, n, err)
		}
		sc := GetScratch()
		gotMode, got, err := DecodeUpdateBatch(payload, sc)
		if err != nil {
			t.Fatal(err)
		}
		if gotMode != mode || !reflect.DeepEqual(got, ups) {
			t.Fatalf("round trip: mode %v ups %+v", gotMode, got)
		}
		// Re-encode must be byte-identical — the format is canonical.
		again, err := EncodeUpdateBatch(gotMode, got)
		if err != nil {
			t.Fatal(err)
		}
		sc.Release()
		if !bytes.Equal(again, frame) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", again, frame)
		}
	}
}

func TestUpdateBatchRange(t *testing.T) {
	// WriteVarInt covers |v| < 1<<62; out-of-range values must be a clean
	// encode error, not silent truncation.
	if _, err := EncodeUpdateBatch(ModeApply, []graph.Update{{Op: graph.OpAddNode, A: 1 << 62}}); err == nil {
		t.Fatal("encoded out-of-range node id")
	}
	if _, err := EncodeUpdateBatch(ModeApply, []graph.Update{{Op: 3, A: 1}}); err == nil {
		t.Fatal("encoded invalid op")
	}
	if _, err := EncodeUpdateBatch(BatchMode(2), nil); err == nil {
		t.Fatal("encoded invalid mode")
	}
}

func TestBatchAckRoundTrip(t *testing.T) {
	for _, a := range []*BatchAck{
		{Queued: 0, Pending: 0},
		{Queued: 100, Pending: 3, Elapsed: 12345},
		{Queued: 1, Elapsed: 987654321, Report: goldenReport()},
		{Queued: 2, Report: &report.SessionReport{Generation: 1, Mode: "cache", ActiveScheme: "planarity", Accepted: true}},
	} {
		frame, err := EncodeBatchAck(a)
		if err != nil {
			t.Fatal(err)
		}
		_, payload, _, err := ParseFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBatchAck(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, a)
		}
	}
}

func TestEventRoundTrip(t *testing.T) {
	frame, err := EncodeEvent(1<<40, goldenReport())
	if err != nil {
		t.Fatal(err)
	}
	_, payload, _, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	version, rep, err := DecodeEvent(payload)
	if err != nil {
		t.Fatal(err)
	}
	if version != 1<<40 || !reflect.DeepEqual(rep, goldenReport()) {
		t.Fatalf("round trip: version %d rep %+v", version, rep)
	}
}

func TestReportSpecialFloats(t *testing.T) {
	rep := &report.SessionReport{Mode: "reprove", Verification: &report.Report{AvgCertBits: math.Inf(1)}}
	frame, err := EncodeEvent(1, rep)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, _, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := DecodeEvent(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Verification.AvgCertBits, 1) {
		t.Fatalf("AvgCertBits = %v", got.Verification.AvgCertBits)
	}
}

// reasonsPayload hand-builds a report record whose verification block
// lists the given reason IDs in the given order, bypassing the encoder
// (which always writes them sorted).
func reasonsPayload(w *bits.Writer, ids []int64) {
	w.WriteVar(1)      // generation
	w.WriteVar(0)      // mode ""
	w.WriteVar(0)      // active scheme ""
	w.WriteVar(0)      // updates
	w.WriteVar(0)      // dirty
	w.WriteVar(0)      // verified
	w.WriteBit(false)  // full verify
	w.WriteBit(false)  // accepted
	w.WriteVar(0)      // cache generation
	w.WriteVar(0)      // repair fallback
	w.WriteVar(0)      // prove err
	w.WriteBit(true)   // has verification
	w.WriteBit(false)  // accepted
	w.WriteVar(0)      // max cert bits
	w.WriteUint(0, 64) // avg cert bits
	w.WriteVar(0)      // messages
	w.WriteVar(0)      // max msg bits
	w.WriteVar(0)      // rejecting count
	w.WriteVar(uint64(len(ids)))
	for _, id := range ids {
		w.WriteVarInt(id)
		w.WriteVar(1) // reason text "x"
		w.WriteUint('x', 8)
	}
}

// TestReasonOrderStrict feeds event and batch-ack payloads whose reason
// IDs repeat or go down: the decoders must reject them as corrupt rather
// than fold them into a map the encoder would write differently.
func TestReasonOrderStrict(t *testing.T) {
	for _, tc := range []struct {
		name string
		ids  []int64
		ok   bool
	}{
		{"increasing", []int64{3, 9}, true},
		{"repeated", []int64{9, 9}, false},
		{"decreasing", []int64{9, 3}, false},
	} {
		var ev, ack bits.Writer
		ev.WriteVar(5) // event version
		reasonsPayload(&ev, tc.ids)
		ack.WriteVar(1) // queued
		ack.WriteVar(0) // pending
		ack.WriteVar(0) // elapsed
		ack.WriteBit(true)
		reasonsPayload(&ack, tc.ids)
		_, _, evErr := DecodeEvent(ev.Bytes())
		_, ackErr := DecodeBatchAck(ack.Bytes())
		for name, err := range map[string]error{"event": evErr, "batch_ack": ackErr} {
			if tc.ok && err != nil {
				t.Errorf("%s/%s: %v", tc.name, name, err)
			}
			if !tc.ok && !errors.Is(err, ErrBadPayload) {
				t.Errorf("%s/%s: err = %v, want ErrBadPayload", tc.name, name, err)
			}
		}
	}
}

func TestHelloAckNackErrorRoundTrip(t *testing.T) {
	h := Hello{Subscription: 12, Version: 34, ResumeFrom: 30, Reset: true}
	frame, err := EncodeHello(h)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, _, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeHello(payload); err != nil || got != h {
		t.Fatalf("hello: %+v, %v", got, err)
	}

	frame, _ = EncodeAck(5, 17)
	_, payload, _, _ = ParseFrame(frame)
	if sub, version, err := DecodeAck(payload); err != nil || sub != 5 || version != 17 {
		t.Fatalf("ack: %d %d %v", sub, version, err)
	}

	frame, _ = EncodeNack(5, 17, "schema mismatch")
	_, payload, _, _ = ParseFrame(frame)
	if sub, version, reason, err := DecodeNack(payload); err != nil || sub != 5 || version != 17 || reason != "schema mismatch" {
		t.Fatalf("nack: %d %d %q %v", sub, version, reason, err)
	}

	frame, _ = EncodeError(429, "slow down")
	_, payload, _, _ = ParseFrame(frame)
	if code, msg, err := DecodeError(payload); err != nil || code != 429 || msg != "slow down" {
		t.Fatalf("error: %d %q %v", code, msg, err)
	}
}

func TestReaderStream(t *testing.T) {
	var stream []byte
	for _, g := range goldenFrames {
		frame, err := g.encode()
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, frame...)
	}
	fr := NewReader(bytes.NewReader(stream))
	for _, g := range goldenFrames {
		kind, payload, err := fr.Next()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if err := decodeByKind(kind, payload); err != nil {
			t.Fatalf("%s: decode: %v", g.name, err)
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}

	// A stream cut mid-frame is ErrUnexpectedEOF, not a clean end.
	for _, cut := range []int{1, HeaderSize - 1, HeaderSize, HeaderSize + 1} {
		fr = NewReader(bytes.NewReader(stream[:cut]))
		if _, _, err := fr.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestDecodeUpdateBatchAllocs(t *testing.T) {
	ups := make([]graph.Update, 256)
	for i := range ups {
		ups[i] = graph.Update{Op: graph.Op(i % 3), A: graph.ID(i), B: graph.ID(-i)}
	}
	frame, err := EncodeUpdateBatch(ModeApply, ups)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, _, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	sc := GetScratch()
	defer sc.Release()
	// Warm the scratch so the slab is sized, then demand zero steady-state
	// allocations (the ISSUE budget is <=2 per batch; decode itself is 0).
	if _, _, err := DecodeUpdateBatch(payload, sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeUpdateBatch(payload, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("steady-state decode allocates %.1f per batch, budget is 2", allocs)
	}
}

func BenchmarkDecodeUpdateBatch(b *testing.B) {
	ups := make([]graph.Update, 1024)
	for i := range ups {
		ups[i] = graph.Update{Op: graph.Op(i % 3), A: graph.ID(i * 3), B: graph.ID(-i * 7)}
	}
	frame, err := EncodeUpdateBatch(ModeQueue, ups)
	if err != nil {
		b.Fatal(err)
	}
	_, payload, _, err := ParseFrame(frame)
	if err != nil {
		b.Fatal(err)
	}
	sc := GetScratch()
	defer sc.Release()
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeUpdateBatch(payload, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeUpdateBatch(b *testing.B) {
	ups := make([]graph.Update, 1024)
	for i := range ups {
		ups[i] = graph.Update{Op: graph.Op(i % 3), A: graph.ID(i * 3), B: graph.ID(-i * 7)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeUpdateBatch(ModeQueue, ups); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzParseFrame feeds arbitrary bytes through the frame parser and
// every payload decoder: nothing may panic or over-allocate. Every event
// and batch-ack payload that decodes must also re-encode canonically.
func FuzzParseFrame(f *testing.F) {
	for _, g := range goldenFrames {
		frame, err := g.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte("PCWF"))
	f.Add(make([]byte, HeaderSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		if kind, payload, n, err := ParseFrame(data); err == nil {
			if n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			_ = decodeByKind(kind, payload)
			checkCanonical(t, kind, payload)
		}
		// The CRC stops nearly every mutated frame before the payload
		// decoders, so the report decoders also get the raw bytes.
		checkCanonical(t, KindEvent, data)
		checkCanonical(t, KindBatchAck, data)
	})
}

// checkCanonical requires an event or batch-ack payload that decodes to
// re-encode without error, and the re-encoded frame to decode and
// re-encode to identical bytes.
func checkCanonical(t *testing.T, kind Kind, payload []byte) {
	first, ok := reencode(t, kind, payload)
	if !ok {
		return
	}
	_, again, _, err := ParseFrame(first)
	if err != nil {
		t.Fatalf("re-encoded %s does not parse: %v", kind, err)
	}
	second, ok := reencode(t, kind, again)
	if !ok {
		t.Fatalf("re-encoded %s does not decode", kind)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("%s re-encoding not canonical:\n first %x\nsecond %x", kind, first, second)
	}
}

// reencode decodes an event or batch-ack payload and encodes the result
// as a complete frame. ok is false when the payload does not decode (or
// is of another kind); an encode failure is fatal.
func reencode(t *testing.T, kind Kind, payload []byte) (frame []byte, ok bool) {
	var err error
	switch kind {
	case KindEvent:
		version, rep, derr := DecodeEvent(payload)
		if derr != nil {
			return nil, false
		}
		frame, err = EncodeEvent(version, rep)
	case KindBatchAck:
		a, derr := DecodeBatchAck(payload)
		if derr != nil {
			return nil, false
		}
		frame, err = EncodeBatchAck(a)
	default:
		return nil, false
	}
	if err != nil {
		t.Fatalf("decoded %s does not re-encode: %v", kind, err)
	}
	return frame, true
}
