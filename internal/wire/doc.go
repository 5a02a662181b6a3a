// Package wire implements planarcertd's binary wire protocol: a
// length-prefixed, CRC-checked frame format for update batches and
// watch streams, hand-rolled with no dependencies beyond the standard
// library and internal/bits.
//
// # Frame layout
//
// Every frame is a fixed 14-byte header followed by a payload:
//
//	offset  size  field
//	0       4     magic "PCWF"
//	4       1     format version (currently 1)
//	5       1     frame kind (KindUpdateBatch .. KindError)
//	6       4     payload length, uint32 little-endian (<= MaxPayload)
//	10      4     CRC32 (IEEE) of the payload, uint32 little-endian
//	14      len   payload
//
// Payloads are MSB-first bit streams written with internal/bits: update
// records pack their op into 2 bits and their node identifiers as
// zigzag varints (bits.WriteVarInt), so a steady add_edge costs ~3
// bytes against ~30 for its NDJSON line. Strings are a varint byte
// length followed by raw bytes; float64 fields are their IEEE-754 bits
// in a fixed 64-bit field.
//
// # Frozen format
//
// The byte format is FROZEN the way internal/wal's on-disk records are:
// golden-bytes tests pin the exact encoding of every frame kind, and
// internal refactors must not change any byte on the wire. Format
// evolution bumps the header version byte and keeps decoding version 1.
//
// # Zero-copy decode
//
// DecodeUpdateBatch parses into a pooled Scratch slab (the transport
// extension of the dist.Scratch discipline): the returned []graph.Update
// aliases the scratch and a steady-state batch decode performs no
// allocations at all. ParseFrame and Reader.Next alias the input buffer
// rather than copying payloads.
package wire
