package main

import (
	"crypto/sha256"
	"math/rand"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The calibration probe measures how fast the machine is right now, so
// that figures taken minutes apart on a shared host can be compared: a
// run scales each throughput sample by nominal/probe rate, the probe
// taken right after that sample.  The probe is fixed reference work made
// of dependent loads over a 4 MiB working set, hashing and sorting.  Its
// buffers live outside the Go heap, so probing neither changes the
// program's garbage collection nor shows in its heap peak.

// probeUnits is the size of one probe, about 13 ms on two goroutines.
const probeUnits = 32

// probeNominal is the probe rate, in units per second per goroutine,
// that normalized figures are scaled to: about the median rate of two
// probe goroutines on a 2-CPU Intel Xeon container.
const probeNominal = 1250

// probeBuffers is one probe goroutine's working set.
type probeBuffers struct {
	chase []int32 // a random cycle over 4 MiB
	hash  []byte
	keys  []int
	sort  []int
}

var (
	probeMu   sync.Mutex
	probeBufs []*probeBuffers
)

// offHeap returns n zeroed bytes of anonymous memory outside the Go heap.
func offHeap(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perfbench: mmap probe buffer: " + err.Error())
	}
	return b
}

func probeBuffersFor(workers int) []*probeBuffers {
	probeMu.Lock()
	defer probeMu.Unlock()
	for len(probeBufs) < workers {
		g := len(probeBufs)
		const chase, keys = 1 << 20, 2048
		b := &probeBuffers{
			chase: unsafe.Slice((*int32)(unsafe.Pointer(&offHeap(4 * chase)[0])), chase),
			hash:  offHeap(16 << 10),
			keys:  unsafe.Slice((*int)(unsafe.Pointer(&offHeap(8 * keys)[0])), keys),
			sort:  unsafe.Slice((*int)(unsafe.Pointer(&offHeap(8 * keys)[0])), keys),
		}
		perm := rand.New(rand.NewSource(int64(g) + 1)).Perm(chase)
		for i := range perm {
			b.chase[perm[i]] = int32(perm[(i+1)%chase])
		}
		for i := range b.hash {
			b.hash[i] = byte(i * (g + 3))
		}
		x := uint32(g*2654435761 + 1)
		for i := range b.keys {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			b.keys[i] = int(x)
		}
		probeBufs = append(probeBufs, b)
	}
	return probeBufs[:workers]
}

// unit is one unit of reference work.
func (b *probeBuffers) unit(seed int) int {
	j := int32(seed)
	for i := 0; i < 4000; i++ {
		j = b.chase[j]
	}
	h := sha256.Sum256(b.hash)
	copy(b.sort, b.keys)
	sort.Ints(b.sort)
	return int(j) + int(h[seed%32]) + b.sort[seed%len(b.sort)]
}

// probeSink keeps the probe's results live.
var probeSink int

// probe runs units of reference work on workers goroutines and returns
// the units completed per second per goroutine.
func probe(workers, units int) float64 {
	bufs := probeBuffersFor(workers)
	t0 := time.Now()
	var wg sync.WaitGroup
	sums := make([]int, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for u := g; u < units; u += workers {
				sums[g] += bufs[g].unit(u)
			}
		}(g)
	}
	wg.Wait()
	for _, s := range sums {
		probeSink += s
	}
	return float64(units) / time.Since(t0).Seconds() / float64(workers)
}
