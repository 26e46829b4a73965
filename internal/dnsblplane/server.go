package dnsblplane

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/overload"
)

// Server serves a Plane over DNS/UDP through a batched pipeline:
//
//	readers --(pooled buffers)--> bounded queue --> workers
//
// Reader goroutines do nothing but pull datagrams off the socket into
// pooled buffers and run the cheap admission checks (priority
// classification, rate/fairness gate, queue headroom), so intake stays
// fast enough to answer a flood with refusals instead of letting the
// kernel socket buffer overflow silently. Worker goroutines drain the
// queue in bursts — one blocking receive, then as many non-blocking
// receives as are ready up to Batch — so each wakeup answers N
// datagrams with one scheduling round trip. This is the portable shape
// of recvmmsg batching: the stdlib exposes no multi-datagram syscall,
// so the batching seam lives between the socket readers and the
// workers rather than in the kernel; swapping a recvmmsg-based reader
// in later changes only the reader loop.
//
// Shedding is cheap by design: a header-only reply costs a 12-byte
// write, while an answer costs a parse, a lookup and a pack. The reply
// is REFUSED when the shed is the client's doing (rate or fairness),
// so well-behaved resolvers back off, and SERVFAIL when it is ours
// (queue full), so they fail over to the next server at once.
type Server struct {
	// Plane answers the queries.
	Plane *Plane

	// Readers is the socket-reader goroutine count (default 1).
	Readers int
	// Workers is the responder goroutine count (default 4).
	Workers int
	// Batch bounds how many datagrams one worker wakeup drains
	// (default 32).
	Batch int
	// QueueDepth bounds the pending-datagram queue (default
	// 16×Workers). Bulk queries stop queuing at 3/4 of this, normal at
	// 9/10, keeping headroom for critical traffic.
	QueueDepth int
	// Admission rate-limits and fair-shares queries; nil admits all.
	Admission *overload.Gate
	// Classify maps a raw query to its priority class. Nil defaults to
	// TXT → Normal (reason lookups ride above the bulk A-query flood),
	// everything else Bulk.
	Classify func(raw []byte, from net.Addr) overload.Priority
	// Clock drives shutdown nudges (default wall clock via the
	// overload seam).
	Clock overload.Clock

	mu       sync.Mutex
	conn     *net.UDPConn
	closed   bool
	draining bool
	// queues is the sharded intake: one bounded queue per worker,
	// selected by a hash of the client address. Stickiness means a
	// flooding client backs up one shard and sheds there, while the
	// other shards keep answering at full speed.
	queues []chan packet
	// depth mirrors queues: the per-shard queue-depth gauge, updated at
	// the enqueue and dequeue points of the serving loop.
	depth []*obs.Gauge
	// serving counts live readers, workers and the queue closer, so
	// Shutdown can wait for in-flight datagrams to be answered.
	serving sync.WaitGroup
	readers sync.WaitGroup
	// qpsStart/qpsCount implement the rolling ~1s window behind the
	// live QPS gauge; time comes from the injected Clock, so the gauge
	// replays deterministically under a simulated clock.
	qpsStart atomic.Int64
	qpsCount atomic.Int64
}

// packet is one pending datagram; buf comes from datagramPool and
// returns to it after the response is written.
type packet struct {
	buf  *[]byte
	n    int
	from netip.AddrPort
}

// datagramPool recycles every Server's receive buffers. It is one
// package-level pool, not a Server field: the runtime's pool list
// holds every pool used since the last collection and keeps it through
// the next one, so a pool inside a Server would keep the Server, its
// Plane and every snapshot alive through the first collection after
// Shutdown.
var datagramPool = sync.Pool{New: func() any {
	b := make([]byte, 4096)
	return &b
}}

func (s *Server) numReaders() int {
	if s.Readers > 0 {
		return s.Readers
	}
	return 1
}

func (s *Server) numWorkers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return 4
}

func (s *Server) batchSize() int {
	if s.Batch > 0 {
		return s.Batch
	}
	return 32
}

func (s *Server) queueDepth() int {
	if s.QueueDepth > 0 {
		return s.QueueDepth
	}
	return 16 * s.numWorkers()
}

func (s *Server) clock() overload.Clock {
	if s.Clock != nil {
		return s.Clock
	}
	return overload.WallClock
}

// classify returns the priority class of a raw query. Only a custom
// Classify gets the sender as a net.Addr, which allocates.
func (s *Server) classify(raw []byte, from netip.AddrPort) overload.Priority {
	if s.Classify != nil {
		return s.Classify(raw, net.UDPAddrFromAddrPort(from))
	}
	if qtypeOf(raw) == dnsbl.TypeTXT {
		// TXT lookups fetch listing reasons — oracle traffic, not the
		// bulk resolver flood.
		return overload.Normal
	}
	return overload.Bulk
}

// qtypeOf extracts the query type from a raw single-question DNS
// message without a full unpack: skip the 12-byte header and the
// QNAME labels, then read QTYPE. Returns 0 on malformed input, so
// readers classify a datagram before spending a parse on it.
func qtypeOf(raw []byte) uint16 {
	i := 12
	for i < len(raw) {
		l := int(raw[i])
		if l == 0 {
			i++
			break
		}
		if l >= 0xc0 { // compression pointer: illegal in a question, bail
			return 0
		}
		i += 1 + l
	}
	if i+2 > len(raw) {
		return 0
	}
	return binary.BigEndian.Uint16(raw[i:])
}

// Listen binds a UDP socket ("127.0.0.1:0" for tests) and serves in
// background goroutines, returning the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, err
	}
	// A "udp" listener is always a *net.UDPConn, whose AddrPort reads
	// and writes allocate no net.Addr per datagram.
	conn := pc.(*net.UDPConn)
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		conn.Close()
		return nil, errors.New("dnsblplane: server closed")
	}
	s.conn = conn
	// Split the total queue bound across the worker shards; every
	// worker owns exactly one queue.
	nw := s.numWorkers()
	perShard := s.queueDepth() / nw
	if perShard < 1 {
		perShard = 1
	}
	s.queues = make([]chan packet, nw)
	s.depth = make([]*obs.Gauge, nw)
	for i := range s.queues {
		s.queues[i] = make(chan packet, perShard)
		if s.Plane != nil && s.Plane.Metrics.QueueDepth != nil {
			s.depth[i] = s.Plane.Metrics.QueueDepth(i)
		}
	}
	for i := 0; i < nw; i++ {
		s.serving.Add(1)
		go s.worker(conn, i)
	}
	for i := 0; i < s.numReaders(); i++ {
		s.serving.Add(1)
		s.readers.Add(1)
		go s.reader(conn)
	}
	// Close the queues once every reader has stopped, releasing workers
	// after they drain what was admitted.
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		s.readers.Wait()
		for _, q := range s.queues {
			close(q)
		}
	}()
	s.mu.Unlock()
	return conn.LocalAddr(), nil
}

// reader is the socket intake loop: read, admit or shed, enqueue.
func (s *Server) reader(conn *net.UDPConn) {
	defer s.serving.Done()
	defer s.readers.Done()
	for {
		bp := datagramPool.Get().(*[]byte)
		n, from, err := conn.ReadFromUDPAddrPort(*bp)
		if err != nil {
			datagramPool.Put(bp)
			return
		}
		raw := (*bp)[:n]
		s.observeQPS()
		p := s.classify(raw, from)
		qi := s.shardIndex(from)
		q := s.queues[qi]
		// Priority headroom: bulk stops queuing at 3/4 of the shard's
		// bound so a flood of A queries cannot starve control traffic
		// of queue space.
		if len(q) >= p.Share(cap(q)) {
			s.shed(conn, raw, from, overload.ShedCapacity)
			datagramPool.Put(bp)
		} else if s.Admission != nil && !s.Admission.Allow(p, clientKey(from)) {
			s.shed(conn, raw, from, overload.ShedRate)
			datagramPool.Put(bp)
		} else {
			select {
			case q <- packet{buf: bp, n: n, from: from}:
				s.depth[qi].Set(int64(len(q)))
			default:
				// Lost the race for the last slot.
				s.shed(conn, raw, from, overload.ShedCapacity)
				datagramPool.Put(bp)
			}
		}
		if s.isStopping() {
			return
		}
	}
}

// shed answers a refused datagram with its header-only refusal.
func (s *Server) shed(conn *net.UDPConn, raw []byte, from netip.AddrPort, reason overload.ShedReason) {
	s.Plane.Metrics.Shed.Inc()
	if resp := shedReply(raw, shedRCode(reason)); resp != nil {
		conn.WriteToUDPAddrPort(resp, from) //nolint:errcheck // best-effort UDP reply
	}
}

// shedReply builds the header-only refusal for a raw query: the
// client's ID echoed, QR set, opcode and RD preserved, the given
// RCode, and no question section (legal, and the shape the answer
// path degrades to). Returns nil when raw is too short to be a query
// or is itself a response.
func shedReply(raw []byte, rcode uint8) []byte {
	if len(raw) < 12 || raw[2]&0x80 != 0 {
		return nil
	}
	resp := make([]byte, 12)
	resp[0], resp[1] = raw[0], raw[1]
	resp[2] = 0x80 | raw[2]&0x79 // QR=1, keep opcode+RD, clear AA/TC
	resp[3] = rcode & 0x0f
	return resp
}

// shedRCode maps a shed reason to its wire answer: REFUSED when the
// shed is the client's doing (rate or fairness), SERVFAIL when it is
// the server's (capacity).
func shedRCode(r overload.ShedReason) uint8 {
	switch r {
	case overload.ShedRate, overload.ShedFairness:
		return dnsbl.RCodeRefused
	default:
		return dnsbl.RCodeServFail
	}
}

// worker drains its own queue shard in bursts and answers each
// datagram with a worker-owned Responder and response buffer, so the
// steady state allocates nothing per query.
func (s *Server) worker(conn *net.UDPConn, shard int) {
	defer s.serving.Done()
	q, g := s.queues[shard], s.depth[shard]
	r := NewResponder(s.Plane)
	batch := make([]packet, 0, s.batchSize())
	out := make([]byte, 0, 512)
	for {
		first, ok := <-q
		if !ok {
			g.Set(0)
			return
		}
		batch = append(batch[:0], first)
		batch = drain(batch, q)
		g.Set(int64(len(q)))
		s.Plane.Metrics.ReadBatch.Observe(float64(len(batch)))
		for _, it := range batch {
			out = r.Respond(out[:0], (*it.buf)[:it.n])
			if out != nil {
				conn.WriteToUDPAddrPort(out, it.from) //nolint:errcheck // best-effort UDP reply
			}
			datagramPool.Put(it.buf)
		}
	}
}

// drain appends whatever is already queued, up to the batch bound,
// without blocking.
func drain(batch []packet, q chan packet) []packet {
	for len(batch) < cap(batch) {
		select {
		case it, ok := <-q:
			if !ok {
				return batch
			}
			batch = append(batch, it)
		default:
			return batch
		}
	}
	return batch
}

// shardIndex maps a client address onto a queue shard: FNV-1a over the
// peer IP's 4 bytes on an IPv4 socket or 16 on an IPv6 one, so a
// client sticks to one shard (and a flooding client backs up only
// that shard).
func (s *Server) shardIndex(from netip.AddrPort) int {
	n := len(s.queues)
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	if ip := from.Addr(); ip.Is4() {
		for _, b := range ip.As4() {
			h = (h ^ uint32(b)) * 16777619
		}
	} else {
		for _, b := range ip.As16() {
			h = (h ^ uint32(b)) * 16777619
		}
	}
	return int(h % uint32(n))
}

// observeQPS feeds the live QPS gauge: datagrams counted over rolling
// windows of at least one second on the injected clock. The CAS elects
// one reader to close each window; the small count leak when two
// windows race is noise a gauge tolerates.
func (s *Server) observeQPS() {
	n := s.qpsCount.Add(1)
	now := s.clock()().UnixNano()
	start := s.qpsStart.Load()
	if start == 0 {
		s.qpsStart.CompareAndSwap(0, now)
		return
	}
	elapsed := now - start
	if elapsed < int64(time.Second) {
		return
	}
	if s.qpsStart.CompareAndSwap(start, now) {
		s.qpsCount.Add(-n)
		s.Plane.Metrics.QPS.Set(n * int64(time.Second) / elapsed)
	}
}

// isStopping reports whether Close or Shutdown has begun.
func (s *Server) isStopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed || s.draining
}

// Close force-closes the socket. Idempotent and safe to call
// concurrently with Shutdown and with queries in flight.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.conn != nil {
		return s.conn.Close()
	}
	return nil
}

// Shutdown drains the server: readers stop intake, workers answer
// everything already admitted, then the socket closes. When ctx
// expires remaining work is force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if !s.draining {
		s.draining = true
		// Nudge readers out of their blocking read without closing the
		// socket under an in-flight reply.
		if s.conn != nil {
			s.conn.SetReadDeadline(s.clock()()) //nolint:errcheck
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.serving.Wait()
		close(done)
	}()
	select {
	case <-done:
		return s.Close()
	case <-ctx.Done():
		s.Close()
		return ctx.Err()
	}
}

// clientKey is the fairness identity of a peer: its IP, so one host
// opening many sockets still lands in one bucket. It reads as
// net.IP.String would: no zone, and an IPv4-mapped address dotted.
func clientKey(addr netip.AddrPort) string {
	return addr.Addr().WithZone("").Unmap().String()
}
