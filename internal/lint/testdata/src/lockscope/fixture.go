// Fixture for the lockscope analyzer; the test runs it under the
// engine import path tasterschoice/internal/overload. The bad cases
// reintroduce the historical overload bug: the admission queue once
// parked on its hand-off channel with the mutex still held, convoying
// every producer behind a single slow consumer.
package fixture

import (
	"net"
	"sync"
)

type queue struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	cond  *sync.Cond
	items []int
	ch    chan int
	wg    sync.WaitGroup
}

// badSend is the reintroduced historical bug: a channel park under
// the queue mutex.
func (q *queue) badSend(v int) {
	q.mu.Lock()
	q.ch <- v // want "channel send while holding q.mu"
	q.mu.Unlock()
}

func (q *queue) badRecv() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return <-q.ch // want "channel receive while holding q.mu"
}

func (q *queue) badWait() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.wg.Wait() // want "sync.WaitGroup.Wait while holding q.mu"
}

func (q *queue) badSelect() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	select { // want "select with no default case parks while holding q.mu"
	case v := <-q.ch:
		return v
	}
}

func (q *queue) badDial(addr string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	conn, _ := net.Dial("tcp", addr) // want "net.Dial while holding q.mu"
	_ = conn
}

func (q *queue) badRange() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	sum := 0
	for v := range q.ch { // want "ranging over a channel while holding q.mu"
		sum += v
	}
	return sum
}

// badRLock: read locks convoy writers just the same.
func (q *queue) badRLock() int {
	q.rw.RLock()
	defer q.rw.RUnlock()
	return <-q.ch // want "channel receive while holding q.rw"
}

// park blocks; the analyzer knows from its computed Blocking fact,
// so calling it under the lock is as bad as parking inline.
func (q *queue) park() int { return <-q.ch }

func (q *queue) badHelper() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.park() // want "call to queue.park, which can block while holding q.mu"
}

// okUnlockThenPark is the sanctioned shape for a queue pop: give the
// lock back before parking.
func (q *queue) okUnlockThenPark() int {
	q.mu.Lock()
	if len(q.items) > 0 {
		v := q.items[0]
		q.items = q.items[1:]
		q.mu.Unlock()
		return v
	}
	q.mu.Unlock()
	return <-q.ch
}

// okCondWait: sync.Cond.Wait releases the mutex while parked.
func (q *queue) okCondWait() {
	q.mu.Lock()
	for len(q.items) == 0 {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// okSelectDefault: a select with a default case polls, never parks.
func (q *queue) okSelectDefault() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case v := <-q.ch:
		return v, true
	default:
		return 0, false
	}
}

// okSpawn: blocking inside a spawned goroutine does not hold the
// spawner's lock.
func (q *queue) okSpawn() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		<-q.ch
	}()
}

func (q *queue) allowedSend(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	//lint:allow lockscope -- fixture: the channel is buffered to queue depth, this send cannot park
	q.ch <- v
}
