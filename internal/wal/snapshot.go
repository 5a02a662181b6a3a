package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
)

const (
	snapMagic   = "PCERTSNP"
	snapVersion = 1
	// snapHeaderSize is magic + uint32 version + uint32 body length.
	snapHeaderSize = len(snapMagic) + 8
	// maxSnapshotBytes bounds a snapshot body against corrupt length
	// fields (generous: a 1M-node assignment fits comfortably).
	maxSnapshotBytes = 1 << 30
	// maxStringBytes bounds the embedded strings (names, scheme names).
	maxStringBytes = 1 << 16
)

// NodeCert is one node's certificate inside a snapshot.
type NodeCert struct {
	// ID is the node identifier.
	ID int64
	// Bits is the exact certificate length in bits.
	Bits int64
	// Data is the certificate bitstream, padded to whole bytes.
	Data []byte
}

// Snapshot is the restorable state of one certification session. It is
// keyed by the 128-bit topology fingerprint maintained incrementally by
// the dynamic layer: recovery recomputes the fingerprint of the decoded
// graph and rejects a snapshot whose key disagrees, independently of
// the CRC.
type Snapshot struct {
	// Name is the session name (planarcertd's registry key).
	Name string
	// Scheme is the scheme requested at session creation.
	Scheme string
	// ActiveScheme is the scheme certifying the graph at snapshot time
	// (differs from Scheme after a planarity flip).
	ActiveScheme string
	// Generation is the session generation at snapshot time.
	Generation uint64
	// Seq is the WAL sequence number this snapshot covers: replay
	// applies only records with a larger sequence.
	Seq uint64
	// FingerprintHi and FingerprintLo are the 128-bit topology
	// fingerprint of the node/edge sets below.
	FingerprintHi, FingerprintLo uint64
	// RepairThreshold, CacheSize and NoFlip restore the session options.
	RepairThreshold int64
	CacheSize       int64
	NoFlip          bool
	// Nodes lists every node identifier (including isolated nodes).
	Nodes []int64
	// Edges lists every undirected edge as an identifier pair.
	Edges [][2]int64
	// Certs is the certificate assignment (empty when the session was
	// uncertified at snapshot time).
	Certs []NodeCert
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// EncodeSnapshot renders the frozen snapshot format (header, body,
// trailing CRC32 of the body). Certificates are sorted by node
// identifier so encoding is deterministic.
func EncodeSnapshot(s *Snapshot) []byte {
	certs := make([]NodeCert, len(s.Certs))
	copy(certs, s.Certs)
	sort.Slice(certs, func(i, j int) bool { return certs[i].ID < certs[j].ID })

	body := make([]byte, 0, 64+len(s.Nodes)*2+len(s.Edges)*4+len(certs)*8)
	body = appendString(body, s.Name)
	body = appendString(body, s.Scheme)
	body = appendString(body, s.ActiveScheme)
	body = binary.LittleEndian.AppendUint64(body, s.Generation)
	body = binary.LittleEndian.AppendUint64(body, s.Seq)
	body = binary.LittleEndian.AppendUint64(body, s.FingerprintHi)
	body = binary.LittleEndian.AppendUint64(body, s.FingerprintLo)
	body = binary.AppendVarint(body, s.RepairThreshold)
	body = binary.AppendVarint(body, s.CacheSize)
	if s.NoFlip {
		body = append(body, 1)
	} else {
		body = append(body, 0)
	}
	body = binary.AppendUvarint(body, uint64(len(s.Nodes)))
	for _, id := range s.Nodes {
		body = binary.AppendVarint(body, id)
	}
	body = binary.AppendUvarint(body, uint64(len(s.Edges)))
	for _, e := range s.Edges {
		body = binary.AppendVarint(body, e[0])
		body = binary.AppendVarint(body, e[1])
	}
	body = binary.AppendUvarint(body, uint64(len(certs)))
	for _, c := range certs {
		body = binary.AppendVarint(body, c.ID)
		body = binary.AppendVarint(body, c.Bits)
		body = binary.AppendUvarint(body, uint64(len(c.Data)))
		body = append(body, c.Data...)
	}

	out := make([]byte, 0, snapHeaderSize+len(body)+4)
	out = append(out, snapMagic...)
	out = binary.LittleEndian.AppendUint32(out, snapVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = append(out, body...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return out
}

type snapReader struct {
	p []byte
}

func (r *snapReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	r.p = r.p[n:]
	return v, nil
}

func (r *snapReader) varint() (int64, error) {
	v, n := binary.Varint(r.p)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	r.p = r.p[n:]
	return v, nil
}

func (r *snapReader) uint64() (uint64, error) {
	if len(r.p) < 8 {
		return 0, fmt.Errorf("%w: truncated uint64", ErrCorrupt)
	}
	v := binary.LittleEndian.Uint64(r.p)
	r.p = r.p[8:]
	return v, nil
}

func (r *snapReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.p)) {
		return nil, fmt.Errorf("%w: truncated byte field", ErrCorrupt)
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b, nil
}

func (r *snapReader) string(maxLen uint64) (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxLen {
		return "", fmt.Errorf("%w: string length %d exceeds limit", ErrCorrupt, n)
	}
	b, err := r.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// DecodeSnapshot parses and integrity-checks a snapshot file. Every
// failure — bad magic, version, length, CRC, or malformed body — wraps
// ErrCorrupt; recovery then falls back to the previous snapshot.
func DecodeSnapshot(raw []byte) (*Snapshot, error) {
	if len(raw) < snapHeaderSize+4 {
		return nil, fmt.Errorf("%w: snapshot shorter than its header", ErrCorrupt)
	}
	if string(raw[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(raw[len(snapMagic):]); v != snapVersion {
		return nil, fmt.Errorf("%w: unsupported snapshot version %d", ErrCorrupt, v)
	}
	bodyLen := binary.LittleEndian.Uint32(raw[len(snapMagic)+4:])
	if bodyLen > maxSnapshotBytes || int(bodyLen) != len(raw)-snapHeaderSize-4 {
		return nil, fmt.Errorf("%w: snapshot body length mismatch", ErrCorrupt)
	}
	body := raw[snapHeaderSize : snapHeaderSize+int(bodyLen)]
	sum := binary.LittleEndian.Uint32(raw[snapHeaderSize+int(bodyLen):])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: snapshot CRC mismatch", ErrCorrupt)
	}

	r := &snapReader{p: body}
	s := &Snapshot{}
	var err error
	if s.Name, err = r.string(maxStringBytes); err != nil {
		return nil, err
	}
	if s.Scheme, err = r.string(maxStringBytes); err != nil {
		return nil, err
	}
	if s.ActiveScheme, err = r.string(maxStringBytes); err != nil {
		return nil, err
	}
	if s.Generation, err = r.uint64(); err != nil {
		return nil, err
	}
	if s.Seq, err = r.uint64(); err != nil {
		return nil, err
	}
	if s.FingerprintHi, err = r.uint64(); err != nil {
		return nil, err
	}
	if s.FingerprintLo, err = r.uint64(); err != nil {
		return nil, err
	}
	if s.RepairThreshold, err = r.varint(); err != nil {
		return nil, err
	}
	if s.CacheSize, err = r.varint(); err != nil {
		return nil, err
	}
	flip, err := r.bytes(1)
	if err != nil {
		return nil, err
	}
	s.NoFlip = flip[0] != 0

	nNodes, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nNodes > uint64(len(r.p)) {
		return nil, fmt.Errorf("%w: node count exceeds body", ErrCorrupt)
	}
	s.Nodes = make([]int64, 0, nNodes)
	for i := uint64(0); i < nNodes; i++ {
		id, err := r.varint()
		if err != nil {
			return nil, err
		}
		s.Nodes = append(s.Nodes, id)
	}
	nEdges, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nEdges > uint64(len(r.p)) {
		return nil, fmt.Errorf("%w: edge count exceeds body", ErrCorrupt)
	}
	s.Edges = make([][2]int64, 0, nEdges)
	for i := uint64(0); i < nEdges; i++ {
		a, err := r.varint()
		if err != nil {
			return nil, err
		}
		b, err := r.varint()
		if err != nil {
			return nil, err
		}
		s.Edges = append(s.Edges, [2]int64{a, b})
	}
	nCerts, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nCerts > uint64(len(r.p)) {
		return nil, fmt.Errorf("%w: certificate count exceeds body", ErrCorrupt)
	}
	s.Certs = make([]NodeCert, 0, nCerts)
	// Every certificate's data is copied into one slab, each capped at
	// its own length so an append to one reallocates instead of running
	// into the next. The rest of the body bounds their total, so the
	// slab never grows.
	slab := make([]byte, 0, len(r.p))
	for i := uint64(0); i < nCerts; i++ {
		var c NodeCert
		if c.ID, err = r.varint(); err != nil {
			return nil, err
		}
		if c.Bits, err = r.varint(); err != nil {
			return nil, err
		}
		dataLen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		data, err := r.bytes(dataLen)
		if err != nil {
			return nil, err
		}
		if len(data) > 0 {
			lo := len(slab)
			slab = append(slab, data...)
			c.Data = slab[lo:len(slab):len(slab)]
		}
		s.Certs = append(s.Certs, c)
	}
	if len(r.p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing snapshot bytes", ErrCorrupt, len(r.p))
	}
	return s, nil
}
