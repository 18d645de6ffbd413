package graph

import (
	"bytes"
	"sync"
	"testing"
)

// The loader benchmarks share one serialized ~1M-edge workload, so
// text, parallel-text, and binary loads are compared on equal input.
var loadBenchOnce struct {
	once sync.Once
	txt  []byte
	bin  []byte
}

func loadBenchData() ([]byte, []byte) {
	loadBenchOnce.once.Do(func() {
		g := Gnm(1<<17, 1<<20, 1)
		var txt, bin bytes.Buffer
		if err := g.WriteEdgeList(&txt); err != nil {
			panic(err)
		}
		if err := g.WriteBinary(&bin); err != nil {
			panic(err)
		}
		loadBenchOnce.txt = txt.Bytes()
		loadBenchOnce.bin = bin.Bytes()
	})
	return loadBenchOnce.txt, loadBenchOnce.bin
}

func BenchmarkLoadTextSequential(b *testing.B) {
	txt, _ := loadBenchData()
	b.SetBytes(int64(len(txt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadEdgeList(bytes.NewReader(txt)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadTextParallel(b *testing.B) {
	txt, _ := loadBenchData()
	b.SetBytes(int64(len(txt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseEdgeList(txt, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadBinary(b *testing.B) {
	_, bin := loadBenchData()
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(bin)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteBinary(b *testing.B) {
	g := Gnm(1<<15, 1<<18, 1)
	var buf bytes.Buffer
	g.WriteBinary(&buf)
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := g.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
