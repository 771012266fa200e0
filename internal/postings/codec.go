// Package postings implements compressed inverted-list storage: v-byte
// encoded postings laid out in self-describing blocks, bulk block
// decoding, skipping iterators, and the non-dense (sparse) index the
// paper proposes in Step 1 to "speed up processing the large fragment".
//
// A posting is a (document id, term frequency) pair. Lists are stored
// sorted by document id and grouped into blocks of BlockSize postings.
// Each block carries a local header — first document id, posting count,
// payload byte length, and the block's maximum term frequency — so a
// block can be decoded as a unit, skipped without decoding, and bounded
// (via the max TF) without being read at all. Document ids are
// delta-encoded and both fields v-byte compressed — the standard IR
// layout of the paper's era (Brown 1995). Lists live in a storage.File
// so every read is accounted as page I/O.
package postings

import (
	"errors"
	"fmt"
)

// Posting is one entry of an inverted list: the document the term occurs
// in and how often it occurs there.
type Posting struct {
	DocID uint32
	TF    uint32
}

// putUvarint appends the v-byte encoding of v to buf and returns the
// extended slice. The encoding stores 7 bits per byte, the high bit
// flagging continuation, least-significant group first.
func putUvarint(buf []byte, v uint32) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// uvarint decodes a v-byte value from buf, returning the value and the
// number of bytes consumed. n == 0 signals truncated input.
func uvarint(buf []byte) (v uint32, n int) {
	var shift uint
	for i, b := range buf {
		if i == 5 {
			return 0, 0 // overlong encoding for a 32-bit value
		}
		v |= uint32(b&0x7f) << shift
		if b < 0x80 {
			return v, i + 1
		}
		shift += 7
	}
	return 0, 0
}

// ErrCorrupt is returned when a list's byte stream cannot be decoded.
var ErrCorrupt = errors.New("postings: corrupt list encoding")

// The block layout. An encoded list is:
//
//	uvarint count                       total postings in the list
//	count/BlockSize × block (last one possibly partial):
//	    uvarint firstDocDelta           block's first doc id, delta-coded
//	                                    against the previous block's first
//	                                    doc id (the id itself for block 0)
//	    uvarint n-1                     postings in the block, minus one
//	    uvarint payloadLen              byte length of the payload below
//	    uvarint maxTF                   largest TF in the block
//	    payload:
//	        uvarint tf[0]               first posting's TF (its doc id is
//	                                    implied by the header)
//	        (n-1) × (uvarint gap, uvarint tf)
//
// Chaining firstDoc against the previous block's *first* doc (not its
// last) means a reader can walk headers alone — header, jump payloadLen,
// header, ... — reconstructing every block boundary and bound without
// decoding any payload. That is what makes the block a unit that can be
// skipped, bounded, or bulk-decoded.

// EncodeBlocks serializes a docID-sorted posting list into the block
// layout in a single pass, emitting the per-block sparse-index entries
// (byte offset, first/last doc, count, max TF) and the list-wide maximum
// TF alongside the bytes — no second encoding walk is needed to learn
// offsets. Encode rejects lists that are not strictly increasing in
// DocID or that contain zero TFs, because both would silently break
// ranking.
func EncodeBlocks(ps []Posting) (body []byte, skips []SkipEntry, maxTF uint32, err error) {
	for i, p := range ps {
		if i > 0 && p.DocID <= ps[i-1].DocID {
			return nil, nil, 0, fmt.Errorf("postings: doc ids not strictly increasing at index %d", i)
		}
		if p.TF == 0 {
			return nil, nil, 0, fmt.Errorf("postings: zero term frequency at index %d", i)
		}
	}
	body = putUvarint(nil, uint32(len(ps)))
	if len(ps) == 0 {
		return body, nil, 0, nil
	}
	numBlocks := (len(ps) + BlockSize - 1) / BlockSize
	skips = make([]SkipEntry, 0, numBlocks)
	payload := make([]byte, 0, 2*BlockSize)
	prevFirst := int64(-1)
	for start := 0; start < len(ps); start += BlockSize {
		end := start + BlockSize
		if end > len(ps) {
			end = len(ps)
		}
		block := ps[start:end]
		var blockMax uint32
		payload = putUvarint(payload[:0], block[0].TF)
		for i := 1; i < len(block); i++ {
			payload = putUvarint(payload, block[i].DocID-block[i-1].DocID-1)
			payload = putUvarint(payload, block[i].TF)
		}
		for _, p := range block {
			if p.TF > blockMax {
				blockMax = p.TF
			}
		}
		if blockMax > maxTF {
			maxTF = blockMax
		}
		skips = append(skips, SkipEntry{
			FirstDoc: block[0].DocID,
			LastDoc:  block[len(block)-1].DocID,
			Offset:   uint32(len(body)),
			Count:    int32(len(block)),
			MaxTF:    blockMax,
		})
		body = putUvarint(body, uint32(int64(block[0].DocID)-prevFirst-1))
		body = putUvarint(body, uint32(len(block)-1))
		body = putUvarint(body, uint32(len(payload)))
		body = putUvarint(body, blockMax)
		body = append(body, payload...)
		prevFirst = int64(block[0].DocID)
	}
	return body, skips, maxTF, nil
}

// Encode serializes a docID-sorted posting list, discarding the block
// metadata EncodeBlocks produces. It exists for callers that only need
// the bytes (round-trip tests, size accounting).
func Encode(ps []Posting) ([]byte, error) {
	body, _, _, err := EncodeBlocks(ps)
	return body, err
}

// decodeBlockHeader parses one block header at buf[pos:], returning the
// block's first doc id, posting count, payload start and length. ok is
// false on any truncation or violated invariant.
func decodeBlockHeader(buf []byte, pos int, prevFirst int64) (firstDoc uint32, count, payloadStart, payloadLen int, maxTF uint32, ok bool) {
	delta, n := uvarint(buf[pos:])
	if n == 0 {
		return 0, 0, 0, 0, 0, false
	}
	pos += n
	nm1, n := uvarint(buf[pos:])
	if n == 0 || nm1 >= BlockSize {
		return 0, 0, 0, 0, 0, false
	}
	pos += n
	plen, n := uvarint(buf[pos:])
	if n == 0 {
		return 0, 0, 0, 0, 0, false
	}
	pos += n
	mtf, n := uvarint(buf[pos:])
	if n == 0 || mtf == 0 {
		return 0, 0, 0, 0, 0, false
	}
	pos += n
	if int(plen) > len(buf)-pos {
		return 0, 0, 0, 0, 0, false
	}
	doc := prevFirst + 1 + int64(delta)
	if doc > int64(^uint32(0)) {
		return 0, 0, 0, 0, 0, false
	}
	return uint32(doc), int(nm1) + 1, pos, int(plen), mtf, true
}

// decodeBlockInto is the one bulk payload-decode loop of the codec,
// with the varint decoding inlined — no per-posting function calls. It
// resumes at payload[pos:] with bn postings already materialized in
// docs/tfs (bn == 0 starts the block at firstDoc), decoding until the
// block's count postings are done, or — when limit is non-nil — until
// the first posting with DocID >= *limit has been materialized. It
// returns the new bn and pos, with ok false on truncation, overlong
// varints, zero TFs, or a TF above the header's max-TF bound.
func decodeBlockInto(payload []byte, pos int, firstDoc uint32, bn, count int, maxTF uint32, limit *uint32, docs, tfs *[BlockSize]uint32) (int, int, bool) {
	var doc uint32
	if bn > 0 {
		doc = docs[bn-1]
	}
	for bn < count {
		if bn > 0 {
			// gap
			var gap, shift uint32
			for {
				if pos >= len(payload) || shift > 28 {
					return bn, pos, false
				}
				b := payload[pos]
				pos++
				gap |= uint32(b&0x7f) << shift
				if b < 0x80 {
					break
				}
				shift += 7
			}
			doc += gap + 1
		} else {
			doc = firstDoc
		}
		// tf
		var tf, shift uint32
		for {
			if pos >= len(payload) || shift > 28 {
				return bn, pos, false
			}
			b := payload[pos]
			pos++
			tf |= uint32(b&0x7f) << shift
			if b < 0x80 {
				break
			}
			shift += 7
		}
		if tf == 0 || tf > maxTF {
			return bn, pos, false
		}
		docs[bn] = doc
		tfs[bn] = tf
		bn++
		if limit != nil && doc >= *limit {
			break
		}
	}
	return bn, pos, true
}

// decodeBlockPayload bulk-decodes one whole block payload into the
// docs/tfs arrays, returning false when the payload is truncated,
// violates its declared length, or exceeds the header's max-TF bound.
func decodeBlockPayload(payload []byte, firstDoc uint32, count int, maxTF uint32, docs, tfs *[BlockSize]uint32) bool {
	bn, pos, ok := decodeBlockInto(payload, 0, firstDoc, 0, count, maxTF, nil, docs, tfs)
	return ok && bn == count && pos == len(payload)
}

// Decode deserializes an entire encoded list. It is the inverse of
// Encode and needs no external metadata: the in-stream block headers
// make the encoding self-describing.
func Decode(buf []byte) ([]Posting, error) {
	count, n := uvarint(buf)
	if n == 0 {
		return nil, ErrCorrupt
	}
	pos := n
	// count comes from the stream: cap the allocation by what the bytes
	// that follow can hold (a posting is at least two bytes), so a
	// corrupt header cannot ask for gigabytes before ErrCorrupt.
	out := make([]Posting, 0, min(int(count), len(buf)/2))
	var docs, tfs [BlockSize]uint32
	prevFirst := int64(-1)
	prevDoc := int64(-1)
	for uint32(len(out)) < count {
		firstDoc, bn, payloadStart, payloadLen, maxTF, ok := decodeBlockHeader(buf, pos, prevFirst)
		if !ok || uint32(len(out)+bn) > count || int64(firstDoc) <= prevDoc {
			return nil, ErrCorrupt
		}
		if !decodeBlockPayload(buf[payloadStart:payloadStart+payloadLen], firstDoc, bn, maxTF, &docs, &tfs) {
			return nil, ErrCorrupt
		}
		for i := 0; i < bn; i++ {
			out = append(out, Posting{DocID: docs[i], TF: tfs[i]})
		}
		prevFirst = int64(firstDoc)
		prevDoc = int64(docs[bn-1])
		pos = payloadStart + payloadLen
	}
	return out, nil
}
