package main

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// encodeRequests renders a workload's request sequence as the bytes a client
// would send: one request line per position, target node and URL.
func encodeRequests(b *bench, w workload) []byte {
	qs := w.keys(b)
	seq := w.seq(b, len(qs))
	var out bytes.Buffer
	var n [4]byte
	for i := range seq {
		node, k := seq.at(i)
		binary.BigEndian.PutUint32(n[:], uint32(node))
		out.Write(n[:])
		out.WriteString(qs[k].path)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b1 := &bench{seed: 7, scale: 1, mix: queryMix()}
			b2 := &bench{seed: 7, scale: 1, mix: queryMix()}
			b3 := &bench{seed: 8, scale: 1, mix: queryMix()}
			first, again, other := encodeRequests(b1, w), encodeRequests(b2, w), encodeRequests(b3, w)
			if !bytes.Equal(first, again) {
				t.Fatal("seed 7 generated two different request sequences")
			}
			if bytes.Equal(first, other) {
				t.Fatal("seeds 7 and 8 generated the same request sequence")
			}
		})
	}
}
