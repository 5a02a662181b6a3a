package bits

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTripFixedWidth(t *testing.T) {
	var w Writer
	values := []struct {
		v     uint64
		width int
	}{
		{0, 1}, {1, 1}, {5, 3}, {255, 8}, {256, 9}, {1 << 40, 41}, {0, 0},
	}
	for _, tc := range values {
		if err := w.WriteUint(tc.v, tc.width); err != nil {
			t.Fatalf("WriteUint(%d,%d): %v", tc.v, tc.width, err)
		}
	}
	r := NewReader(w.Bytes(), w.Len())
	for _, tc := range values {
		got, err := r.ReadUint(tc.width)
		if err != nil {
			t.Fatalf("ReadUint(%d): %v", tc.width, err)
		}
		if got != tc.v {
			t.Fatalf("round trip = %d, want %d", got, tc.v)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d bits", r.Remaining())
	}
}

func TestWriteUintRejectsOverflow(t *testing.T) {
	var w Writer
	if err := w.WriteUint(8, 3); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overflow error = %v", err)
	}
	if err := w.WriteUint(1, 65); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("width error = %v", err)
	}
}

func TestSignedRoundTrip(t *testing.T) {
	var w Writer
	if err := w.WriteInt(-3, -10, 5); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteInt(-10, -10, 5); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteInt(-11, -10, 5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("below-bound error = %v", err)
	}
	r := NewReader(w.Bytes(), w.Len())
	for _, want := range []int64{-3, -10} {
		got, err := r.ReadInt(-10, 5)
		if err != nil || got != want {
			t.Fatalf("ReadInt = (%d, %v), want %d", got, err, want)
		}
	}
}

func TestVarRoundTrip(t *testing.T) {
	var w Writer
	vals := []uint64{0, 1, 2, 63, 64, 12345, 1 << 50}
	for _, v := range vals {
		if err := w.WriteVar(v); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(w.Bytes(), w.Len())
	for _, want := range vals {
		got, err := r.ReadVar()
		if err != nil || got != want {
			t.Fatalf("ReadVar = (%d, %v), want %d", got, err, want)
		}
	}
}

func TestShortRead(t *testing.T) {
	var w Writer
	if err := w.WriteUint(5, 3); err != nil {
		t.Fatal(err)
	}
	r := NewReader(w.Bytes(), w.Len())
	if _, err := r.ReadUint(4); !errors.Is(err, ErrShortRead) {
		t.Fatalf("short read error = %v", err)
	}
}

func TestWidthFor(t *testing.T) {
	tests := []struct {
		max  uint64
		want int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}}
	for _, tc := range tests {
		if got := WidthFor(tc.max); got != tc.want {
			t.Fatalf("WidthFor(%d) = %d, want %d", tc.max, got, tc.want)
		}
	}
}

func TestCertificateEqual(t *testing.T) {
	var w1, w2 Writer
	if err := w1.WriteUint(5, 3); err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteUint(5, 3); err != nil {
		t.Fatal(err)
	}
	c1, c2 := FromWriter(&w1), FromWriter(&w2)
	if !c1.Equal(c2) {
		t.Fatal("identical certificates unequal")
	}
	var w3 Writer
	if err := w3.WriteUint(4, 3); err != nil {
		t.Fatal(err)
	}
	if c1.Equal(FromWriter(&w3)) {
		t.Fatal("different certificates equal")
	}
	var w4 Writer
	if err := w4.WriteUint(5, 4); err != nil {
		t.Fatal(err)
	}
	if c1.Equal(FromWriter(&w4)) {
		t.Fatal("different-length certificates equal")
	}
}

func TestQuickMixedRoundTrip(t *testing.T) {
	f := func(vals []uint32, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var w Writer
		widths := make([]int, len(vals))
		for i, v := range vals {
			widths[i] = WidthFor(uint64(v)) + rng.Intn(8)
			if widths[i] > 64 {
				widths[i] = 64
			}
			if err := w.WriteUint(uint64(v), widths[i]); err != nil {
				return false
			}
		}
		r := NewReader(w.Bytes(), w.Len())
		for i, v := range vals {
			got, err := r.ReadUint(widths[i])
			if err != nil || got != uint64(v) {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitInterleaving(t *testing.T) {
	var w Writer
	w.WriteBit(true)
	if err := w.WriteUint(0b1011, 4); err != nil {
		t.Fatal(err)
	}
	w.WriteBit(false)
	w.WriteBit(true)
	r := NewReader(w.Bytes(), w.Len())
	b, _ := r.ReadBit()
	if !b {
		t.Fatal("first bit")
	}
	v, _ := r.ReadUint(4)
	if v != 0b1011 {
		t.Fatalf("mid value = %b", v)
	}
	b1, _ := r.ReadBit()
	b2, _ := r.ReadBit()
	if b1 || !b2 {
		t.Fatal("tail bits")
	}
}

func TestLenCountsBits(t *testing.T) {
	var w Writer
	if err := w.WriteUint(1, 13); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 13 {
		t.Fatalf("Len = %d, want 13", w.Len())
	}
	c := FromWriter(&w)
	if c.Size() != 13 {
		t.Fatalf("Size = %d", c.Size())
	}
}

// refWriteUint is the bit-at-a-time writer WriteUint replaced, kept as
// the reference its byte-chunked loop must reproduce.
func refWriteUint(w *Writer, v uint64, width int) error {
	if width < 0 || width > 64 {
		return fmt.Errorf("%w: width %d", ErrOutOfRange, width)
	}
	if width < 64 && v>>uint(width) != 0 {
		return fmt.Errorf("%w: %d does not fit in %d bits", ErrOutOfRange, v, width)
	}
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(v>>uint(i)&1 == 1)
	}
	return nil
}

// refWriteVar is the two-field WriteVar on top of refWriteUint.
func refWriteVar(w *Writer, v uint64) error {
	n := 0
	for x := v; x != 0; x >>= 1 {
		n++
	}
	if err := refWriteUint(w, uint64(n), 6); err != nil {
		return err
	}
	return refWriteUint(w, v, n)
}

// FuzzWriteUint drives WriteUint/WriteVar and the bit-at-a-time
// reference with the same (value, width) sequence and requires the same
// bytes, the same Len and the same out-of-range failures after every
// call. Each 10-byte record is: op, width, 8 value bytes; op bit 0
// selects WriteVar, bit 1 masks the value to the width (so most fixed
// fields fit), bit 2 resets both writers first.
func FuzzWriteUint(f *testing.F) {
	f.Add([]byte{2, 5, 0, 0, 0, 0, 0, 0, 0, 17, 2, 64, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add([]byte{1, 0, 128, 0, 0, 0, 0, 0, 0, 1, 0, 3, 0, 0, 0, 0, 0, 0, 0, 8})
	f.Add([]byte{0, 65, 0, 0, 0, 0, 0, 0, 0, 1, 6, 200, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want Writer
		for len(data) >= 10 {
			op, width := data[0], int(int8(data[1]))
			v := binary.BigEndian.Uint64(data[2:10])
			data = data[10:]
			if op&4 != 0 {
				got.Reset()
				want.Reset()
			}
			if op&2 != 0 && width >= 0 && width < 64 {
				v &= 1<<uint(width) - 1
			}
			var gerr, werr error
			if op&1 != 0 {
				gerr, werr = got.WriteVar(v), refWriteVar(&want, v)
			} else {
				gerr, werr = got.WriteUint(v, width), refWriteUint(&want, v, width)
			}
			if (gerr == nil) != (werr == nil) || (gerr != nil && (!errors.Is(gerr, ErrOutOfRange) || gerr.Error() != werr.Error())) {
				t.Fatalf("op %d width %d value %d: error %v, reference %v", op, width, v, gerr, werr)
			}
			if got.Len() != want.Len() || !bytes.Equal(got.Raw(), want.Raw()) {
				t.Fatalf("op %d width %d value %d: %d bits %x, reference %d bits %x",
					op, width, v, got.Len(), got.Raw(), want.Len(), want.Raw())
			}
		}
	})
}
