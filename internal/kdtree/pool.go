package kdtree

import "sync"

// BufferPool is a sync.Pool of KNNBuffers with a fixed neighbor count,
// letting hot query paths (the engine's k-NN reads, batched all-k-NN
// passes) reuse buffers across queries and across calls instead of
// allocating one per query.
type BufferPool struct {
	k int
	p sync.Pool
}

// NewBufferPool returns a pool of k-neighbor buffers.
func NewBufferPool(k int) *BufferPool {
	bp := &BufferPool{k: k}
	bp.p.New = func() any { return NewKNNBuffer(k) }
	return bp
}

// K returns the neighbor count of the pooled buffers.
func (bp *BufferPool) K() int { return bp.k }

// Get returns a Reset buffer ready for a query.
func (bp *BufferPool) Get() *KNNBuffer {
	b := bp.p.Get().(*KNNBuffer)
	b.Reset()
	return b
}

// Put returns a buffer to the pool.
func (bp *BufferPool) Put(b *KNNBuffer) { bp.p.Put(b) }
