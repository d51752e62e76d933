// Package lockcheck is the fixture for the lock-discipline analyzer:
// locks held across blocking operations (including through the
// summary layer's interprocedural propagation) and inconsistent
// acquisition order.
package lockcheck

import (
	"sync"
	"time"
)

type Server struct {
	mu   sync.Mutex
	wal  sync.Mutex
	jobs []int
}

// The ISSUE's seeded bug: a lock held across a channel send. If the
// receiver is slow (or gone), every other caller of publish wedges.
func (s *Server) publish(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch <- 1 // want `lock s\.mu held across blocking operation: channel send`
}

func (s *Server) poll(ch chan int) {
	s.mu.Lock()
	<-ch // want `lock s\.mu held across blocking operation: channel receive`
	s.mu.Unlock()
}

func (s *Server) nap() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want `lock s\.mu held across blocking operation: time\.Sleep`
}

// slowHelper blocks; the summary layer must propagate that fact to
// callers so a lock held across the call is reported.
func slowHelper() {
	time.Sleep(time.Millisecond)
}

func (s *Server) indirect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	slowHelper() // want `lock s\.mu held across blocking operation: lockcheck\.slowHelper blocks: call to time\.Sleep`
}

// Unlock before the blocking operation: clean.
func (s *Server) unlockFirst(ch chan int) {
	s.mu.Lock()
	s.jobs = append(s.jobs, 1)
	s.mu.Unlock()
	ch <- 1
}

// A goroutine spawned under the lock runs after Unlock returns in the
// parent; the spawner itself does not block.
func (s *Server) spawn(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		ch <- 1
	}()
}

// A select with a default never parks: clean.
func (s *Server) trySend(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case ch <- 1:
	default:
	}
}

// Inconsistent acquisition order: lockAB nests wal inside mu, lockBA
// the reverse — the classic deadlock shape.
func (s *Server) lockAB() {
	s.mu.Lock()
	s.wal.Lock()
	s.wal.Unlock()
	s.mu.Unlock()
}

func (s *Server) lockBA() {
	s.wal.Lock()
	s.mu.Lock() // want `locks lockcheck\.Server\.wal and lockcheck\.Server\.mu acquired in inconsistent order`
	s.mu.Unlock()
	s.wal.Unlock()
}

// An audited exception is suppressed.
func (s *Server) allowed(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//ampvet:allow lockcheck the channel is buffered and owned by this struct; the send cannot park
	ch <- 1
}
