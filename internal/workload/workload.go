// Package workload provides the simulated programs that drive the
// machine: the paper's Table III micro-benchmarks (Random, Stream,
// Sparse, Quicksort, Recursive, Normal, Poisson), synthetic models of the
// application benchmarks (Gapbs_pr, G500_sssp, Ycsb_mem) calibrated to
// the stack-usage characteristics the paper reports, and SPEC CPU
// 2017-like access-pattern models used in the tracking-overhead study.
//
// Programs are pull-based op generators: the kernel (or the trace
// capturer) repeatedly calls Next and executes the returned operation.
// Generators are written as ordinary Go code — including real recursion
// for Quicksort — running in a producer goroutine that fills fixed
// batches of ops and hands each whole batch to the consumer over an
// unbuffered channel. The producer may run up to two batches ahead of
// the consumer; that cannot change the stream, because a generator body
// reads only its static Context and its private RNG, never simulator
// state.
package workload

import "prosper/internal/sim"

// Kind discriminates operation types.
type Kind uint8

// Operation kinds.
const (
	Compute Kind = iota // advance time by Cycles
	Load                // read Size bytes at Addr
	Store               // write Size bytes at Addr
	End                 // program finished
)

// Op is one operation of a simulated instruction stream. SP carries the
// program's stack pointer after the operation, which the tracing and
// SP-awareness analyses consume.
type Op struct {
	Kind   Kind
	Addr   uint64
	Size   int32
	Cycles sim.Time
	SP     uint64
}

// Context tells a program where its segments live.
type Context struct {
	StackHi      uint64 // initial stack pointer (exclusive top of stack)
	StackReserve uint64 // maximum stack depth available below StackHi
	HeapLo       uint64 // base of the program's heap arena
	HeapSize     uint64
	Seed         uint64
}

// Program is a runnable instruction stream.
type Program interface {
	// Start initializes the program; it must be called exactly once
	// before the first Next.
	Start(ctx Context)
	// Next returns the next operation. After returning End it keeps
	// returning End.
	Next() Op
	// Close releases the generator's resources. Safe to call at any time
	// after Start; Next must not be called afterwards.
	Close()
}

// Checkpointable is implemented by programs whose execution position can
// be saved into a process checkpoint and restored after a crash.
type Checkpointable interface {
	Snapshot() []byte
	Restore([]byte)
}

// stopped is the sentinel used to unwind a generator goroutine on Close.
type stoppedErr struct{}

func (stoppedErr) Error() string { return "workload: generator stopped" }

// batchOps is the number of ops the producer hands over per channel
// send. Larger batches amortize the handoff further but grow the live
// heap of every running program.
const batchOps = 64

// G is the helper state passed to generator bodies: it tracks the stack
// pointer, owns the deterministic RNG, and provides emit primitives.
type G struct {
	Ctx Context
	Rng *sim.Rand

	sp uint64
	// bufs are the two batch buffers; the body appends to bufs[fill]
	// while the consumer reads the other one. A send on the unbuffered
	// ops channel completes only once the consumer has drained the
	// previous batch, so after each send the other buffer is free.
	bufs    [2][]Op
	fill    int
	ops     chan []Op     //prosperlint:ignore concurrency batch handoff: the body reads no simulator state, so running ahead cannot change the op stream
	stop    chan struct{} //prosperlint:ignore concurrency stop signal: closed exactly once by Close to unwind the producer
	stopped bool
}

func (g *G) send(op Op) {
	op.SP = g.sp
	g.bufs[g.fill] = append(g.bufs[g.fill], op)
	if len(g.bufs[g.fill]) == batchOps {
		g.flush()
	}
}

// flush hands the batch being filled to the consumer and switches to the
// other buffer.
func (g *G) flush() {
	b := g.bufs[g.fill]
	if len(b) == 0 {
		return
	}
	select { //prosperlint:ignore concurrency batch handoff: the body reads no simulator state, so running ahead cannot change the op stream
	case g.ops <- b: //prosperlint:ignore concurrency batch handoff: the body reads no simulator state, so running ahead cannot change the op stream
	case <-g.stop: //prosperlint:ignore concurrency stop is closed exactly once by Close; the panic unwinds the producer deterministically
		panic(stoppedErr{})
	}
	g.fill ^= 1
	g.bufs[g.fill] = g.bufs[g.fill][:0]
}

// Compute advances simulated time.
func (g *G) Compute(cycles sim.Time) { g.send(Op{Kind: Compute, Cycles: cycles}) }

// Load reads size bytes at addr.
func (g *G) Load(addr uint64, size int32) { g.send(Op{Kind: Load, Addr: addr, Size: size}) }

// Store writes size bytes at addr.
func (g *G) Store(addr uint64, size int32) { g.send(Op{Kind: Store, Addr: addr, Size: size}) }

// Call opens a stack frame of frameBytes (8-byte aligned): it pushes the
// return address and returns the new frame base (== new SP).
func (g *G) Call(frameBytes uint64) uint64 {
	if frameBytes < 8 {
		frameBytes = 8
	}
	g.sp -= frameBytes
	// Return address push at the top of the new frame.
	g.Store(g.sp+frameBytes-8, 8)
	return g.sp
}

// Ret closes the current frame of frameBytes: it loads the return address
// and pops.
func (g *G) Ret(frameBytes uint64) {
	if frameBytes < 8 {
		frameBytes = 8
	}
	g.Load(g.sp+frameBytes-8, 8)
	g.sp += frameBytes
}

// StoreLocal writes size bytes at offset off in the current frame.
func (g *G) StoreLocal(off uint64, size int32) { g.Store(g.sp+off, size) }

// LoadLocal reads size bytes at offset off in the current frame.
func (g *G) LoadLocal(off uint64, size int32) { g.Load(g.sp+off, size) }

// genProgram adapts a generator body into a Program. The body runs in its
// own goroutine; when it returns, the program emits End forever.
type genProgram struct {
	body func(*G)
	g    *G
	cur  []Op // batch being consumed
	next int  // index of the next op in cur
	done bool
}

// NewProgram builds a Program from a generator body. The body receives a
// ready G and emits operations until it returns (or forever for steady-
// state workloads, which are terminated by Close).
func NewProgram(body func(*G)) Program {
	return &genProgram{body: body}
}

func (p *genProgram) Start(ctx Context) {
	if p.g != nil {
		panic("workload: Start called twice")
	}
	g := &G{
		Ctx:  ctx,
		Rng:  sim.NewRand(ctx.Seed),
		sp:   ctx.StackHi,
		bufs: [2][]Op{make([]Op, 0, batchOps), make([]Op, 0, batchOps)},
		ops:  make(chan []Op),     //prosperlint:ignore concurrency batch handoff: the body reads no simulator state, so running ahead cannot change the op stream
		stop: make(chan struct{}), //prosperlint:ignore concurrency stop signal: closed exactly once by Close to unwind the producer
	}
	p.g = g
	go func() { //prosperlint:ignore concurrency one producer goroutine per program; it reads no simulator state, so its schedule cannot change the op stream
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stoppedErr); !ok {
					panic(r)
				}
			}
			close(g.ops) //prosperlint:ignore concurrency close signals end-of-ops to the single consumer
		}()
		p.body(g)
		g.flush()
	}()
}

func (p *genProgram) Next() Op {
	if p.next == len(p.cur) {
		if p.done {
			return Op{Kind: End}
		}
		b, ok := <-p.g.ops //prosperlint:ignore concurrency batch handoff: the body reads no simulator state, so running ahead cannot change the op stream
		if !ok {
			p.finish()
			return Op{Kind: End}
		}
		p.cur, p.next = b, 0
	}
	op := p.cur[p.next]
	p.next++
	return op
}

func (p *genProgram) Close() {
	if p.g == nil || p.g.stopped {
		return
	}
	p.g.stopped = true
	close(p.g.stop) //prosperlint:ignore concurrency close signals stop to the single producer exactly once
	// Drain until the producer exits so its goroutine is collected.
	for range p.g.ops { //prosperlint:ignore concurrency drain after stop: values are discarded, order is irrelevant
	}
	p.finish()
}

// finish marks the stream ended and drops both batch buffers. It runs
// only after ops is closed, when the producer touches g no more.
func (p *genProgram) finish() {
	p.done = true
	p.cur, p.next = nil, 0
	p.g.bufs = [2][]Op{}
}
