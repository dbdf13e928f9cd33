package tcp

import (
	"fmt"
	"testing"

	"repro/internal/live/transport"
)

// benchPair is two transports over one loopback socket; node 1 echoes
// every frame whose first byte is 1 and drops the rest.
func benchPair(b *testing.B) []*Transport {
	trs := dialMesh(b, 2, Options{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			frame, ok := trs[1].Recv(1)
			if !ok {
				return
			}
			if frame[0] == 1 {
				trs[1].Send(0, frame)
			} else {
				transport.PutFrame(frame)
			}
		}
	}()
	b.Cleanup(func() {
		tcpMesh{trs}.Close()
		<-done
	})
	return trs
}

// BenchmarkTCPPingPong is one frame there and back — a lock message or
// a 2 KB row: two hops, each a queue hand-off, a write, a read and a
// wake-up.
func BenchmarkTCPPingPong(b *testing.B) {
	for _, size := range []int{36, 2048} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			trs := benchPair(b)
			payload := make([]byte, size)
			payload[0] = 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trs[0].Send(1, append(transport.GetFrame(), payload...))
				frame, ok := trs[0].Recv(0)
				if !ok {
					b.Fatal("transport closed")
				}
				transport.PutFrame(frame)
			}
		})
	}
}

// BenchmarkTCPBurst is a train of 64 frames one way — lock messages or
// 2 KB rows — the last one echoed: what coalescing is for. ns/op is per
// train.
func BenchmarkTCPBurst(b *testing.B) {
	for _, size := range []int{36, 2048} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			trs := benchPair(b)
			payload := make([]byte, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for f := 0; f < 63; f++ {
					trs[0].Send(1, append(transport.GetFrame(), payload...))
				}
				trs[0].Send(1, append(transport.GetFrame(), 1))
				frame, ok := trs[0].Recv(0)
				if !ok {
					b.Fatal("transport closed")
				}
				transport.PutFrame(frame)
			}
		})
	}
}

// BenchmarkTCPRelay is BenchmarkTCPPingPong with both ends pushing: node
// 1's reader runs the sink that answers and writes the answer itself, so
// a round trip wakes node 0's writer and nothing else.
func BenchmarkTCPRelay(b *testing.B) {
	for _, size := range []int{36, 2048} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			trs, answered := relayPair(b)
			b.Cleanup(tcpMesh{trs}.Close)
			payload := make([]byte, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trs[0].Send(1, append(transport.GetFrame(), payload...))
				<-answered
			}
		})
	}
}
