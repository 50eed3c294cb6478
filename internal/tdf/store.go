package tdf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
)

// Store is the Result Store of §4.6: when the original database disallows
// streaming ("some databases require that the total number of results is
// sent to the application first"), all result batches are buffered until
// consumption; if the buffered size exceeds the memory budget, batches spill
// to disk and the set of spill files is maintained until the results are
// fully consumed.
type Store struct {
	mu sync.Mutex
	// budget is the in-memory byte budget before spilling.
	budget int
	// memBatches holds the in-memory prefix.
	memBatches []*Batch
	memBytes   int
	// spill is the overflow file, a sequence of u32-length-prefixed encoded
	// batches; nil until first spill.
	spill  *os.File
	spillW *bufio.Writer
	// scratch holds one encoded batch on its way to or from the spill file.
	scratch   []byte
	spilled   int // batches written to disk
	totalRows int
	sealed    bool
}

// NewStore creates a store with the given in-memory budget in bytes. A
// budget of 0 spills every batch.
func NewStore(budgetBytes int) *Store {
	return &Store{budget: budgetBytes}
}

// Append adds a batch. Batches appended after sealing are rejected.
func (s *Store) Append(b *Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return fmt.Errorf("tdf: append to sealed store")
	}
	s.totalRows += len(b.Rows)
	size := b.EncodedSize()
	if s.spill == nil && s.memBytes+size <= s.budget {
		s.memBatches = append(s.memBatches, b)
		s.memBytes += size
		return nil
	}
	if s.spill == nil {
		f, err := os.CreateTemp("", "hyperq-spill-*.tdf")
		if err != nil {
			return fmt.Errorf("tdf: spill: %w", err)
		}
		s.spill = f
		s.spillW = bufio.NewWriterSize(f, 1<<16)
	}
	enc, err := b.appendTo(append(s.scratch[:0], 0, 0, 0, 0))
	if err != nil {
		return err
	}
	s.scratch = enc
	binary.LittleEndian.PutUint32(enc, uint32(len(enc)-4))
	if _, err := s.spillW.Write(enc); err != nil {
		return err
	}
	s.spilled++
	return nil
}

// TotalRows reports the number of buffered rows (the count some frontend
// protocols must announce before any data).
func (s *Store) TotalRows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalRows
}

// Spilled reports how many batches went to disk (for tests and metrics).
func (s *Store) Spilled() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spilled
}

// Seal marks the store complete and flushes spill buffers.
func (s *Store) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return nil
	}
	s.sealed = true
	if s.spillW != nil {
		if err := s.spillW.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Drain invokes fn on every buffered batch in append order, then releases
// all resources (removing spill files). Drain may be called once.
func (s *Store) Drain(fn func(*Batch) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sealed {
		return fmt.Errorf("tdf: drain before seal")
	}
	defer s.cleanupLocked()
	for _, b := range s.memBatches {
		if err := fn(b); err != nil {
			return err
		}
	}
	if s.spill != nil {
		if _, err := s.spill.Seek(0, 0); err != nil {
			return err
		}
		r := bufio.NewReaderSize(s.spill, 1<<16)
		for i := 0; i < s.spilled; i++ {
			b, err := s.readSpilled(r)
			if err != nil {
				return fmt.Errorf("tdf: reading spill batch %d: %w", i, err)
			}
			if err := fn(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// readSpilled reads the next length-prefixed batch of the spill file.
func (s *Store) readSpilled(r *bufio.Reader) (*Batch, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	_, _ = r.Discard(4) // cannot fail after Peek(4)
	if cap(s.scratch) < n {
		s.scratch = make([]byte, n)
	}
	if _, err := io.ReadFull(r, s.scratch[:n]); err != nil {
		return nil, err
	}
	return DecodeBytes(s.scratch[:n])
}

// Close releases resources without draining.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cleanupLocked()
}

func (s *Store) cleanupLocked() {
	s.memBatches = nil
	s.scratch = nil
	if s.spill != nil {
		name := s.spill.Name()
		_ = s.spill.Close()
		_ = os.Remove(name)
		s.spill = nil
		s.spillW = nil
	}
}
