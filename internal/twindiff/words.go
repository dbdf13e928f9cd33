package twindiff

import (
	"encoding/binary"
	"unsafe"
)

// littleEndian: the host stores a word as its wire bytes, so a run of
// words crosses the codec as one copy of their memory. Elsewhere the codec
// converts word by word.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wordBytes views words as the bytes that hold them, in host order. Outside
// tests and the benchmark harness, no other file imports unsafe.
func wordBytes(words []uint64) []byte {
	if len(words) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))
}

// AppendWords appends the little-endian wire form of words to buf.
func AppendWords(buf []byte, words []uint64) []byte {
	if len(words) == 0 {
		return buf
	}
	if littleEndian {
		return append(buf, wordBytes(words)...)
	}
	return appendWordsLoop(buf, words)
}

// ReadWords fills dst from the little-endian words at the front of src,
// which must hold at least 8*len(dst) bytes.
func ReadWords(dst []uint64, src []byte) {
	if littleEndian {
		copy(wordBytes(dst), src[:8*len(dst)])
		return
	}
	readWordsLoop(dst, src)
}

func appendWordsLoop(buf []byte, words []uint64) []byte {
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

func readWordsLoop(dst []uint64, src []byte) {
	src = src[:8*len(dst)]
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
}
