package main

import "time"

// The benchmark runs on shared virtual machines whose cores change speed by
// up to half within seconds, in the process's CPU time as much as in its wall
// time, so the wall times of runs of the same code spread up to a third
// apart (README.md, "Measured spread"). Every time the benchmark reports is
// therefore scaled to a fixed reference speed: just before each timed
// operation it times refKernel, fixed work that shares no code with the
// program under test, and scales the operation's wall time by refNominalMS
// over the kernel's time.
//
// The kernel has two parts because the workloads slow down differently: a
// breadth-first search over a graph about the size of a core's cache
// overstates the churn steps' slowdowns, and a read stream through the
// shared last-level cache understates all three workloads'; the search plus
// a read taking about half its time tracked all three best of the mixes
// tried.

// refNominalMS is the reference speed: the time refKernel.time takes on a
// core running at it. It is about what the kernel took on a 2-vCPU Xeon VM in
// a quiet period, so scaled times there read about like wall times.
const refNominalMS = 2.0

const (
	refSide    = 300     // search graph side: 90,000 nodes, ≈3 MB of arrays
	refStream  = 1 << 20 // stream length in int64s: 8 MB
	refRepeats = 3       // searches per time; the fastest counts
)

// refKernel is the reference work: the same memory traffic and branches on
// every call and no allocation, so the program's heap does not affect it.
type refKernel struct {
	off, adj    []int32
	dist, queue []int32
	stream      []int64
	sink        int64
}

func newRefKernel() *refKernel {
	n := refSide * refSide
	k := &refKernel{off: make([]int32, n+1), dist: make([]int32, n), queue: make([]int32, n), stream: make([]int64, refStream)}
	for y := 0; y < refSide; y++ {
		for x := 0; x < refSide; x++ {
			for _, d := range [6][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, -1}, {-1, 1}} {
				nx, ny := x+d[0], y+d[1]
				if nx >= 0 && nx < refSide && ny >= 0 && ny < refSide {
					k.adj = append(k.adj, int32(ny*refSide+nx))
				}
			}
			k.off[y*refSide+x+1] = int32(len(k.adj))
		}
	}
	for i := range k.stream {
		k.stream[i] = int64(i)
	}
	return k
}

// search runs one breadth-first search from node src.
func (k *refKernel) search(src int32) {
	for i := range k.dist {
		k.dist[i] = -1
	}
	k.dist[src] = 0
	k.queue[0] = src
	tail := 1
	for head := 0; head < tail; head++ {
		u := k.queue[head]
		for _, v := range k.adj[k.off[u]:k.off[u+1]] {
			if k.dist[v] < 0 {
				k.dist[v] = k.dist[u] + 1
				k.queue[tail] = v
				tail++
			}
		}
	}
	k.sink += int64(k.dist[len(k.dist)-1])
}

// read touches one word per cache line of the stream.
func (k *refKernel) read() {
	var s int64
	for i := 0; i < len(k.stream); i += 8 {
		s += k.stream[i]
	}
	k.sink += s
}

// time returns the fastest of refRepeats searches, which an interrupt or a
// collector slice does not lengthen, plus one stream read.
func (k *refKernel) time() time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < refRepeats; i++ {
		start := time.Now()
		k.search(int32(i))
		best = min(best, time.Since(start))
	}
	start := time.Now()
	k.read()
	return best + time.Since(start)
}

// scale converts a wall time measured next to a kernel time ref to the
// reference speed.
func scale(wall, ref time.Duration) time.Duration {
	return time.Duration(float64(wall) * refNominalMS / ms(ref))
}
