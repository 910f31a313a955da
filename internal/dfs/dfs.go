// Package dfs implements the LineFS-style distributed file system server
// of §6.1: files are written as chunks carried by CPU-bypass flows; the
// server tracks received ranges, detects completion, and maintains the
// replication/logging pipeline state whose memory traffic the machine
// model charges. Like internal/kv, it is real executing code driven by
// simulated packet deliveries.
package dfs

import (
	"fmt"
	"sort"
)

// extent is a half-open received byte range [Start, End).
type extent struct{ Start, End int64 }

// File tracks one file being written.
type File struct {
	Name string
	Size int64 // declared size; 0 = open-ended

	extents  []extent // sorted, non-overlapping
	received int64

	// Replicas is the replication factor applied to incoming chunks.
	Replicas int
}

// Received returns the number of distinct bytes received so far.
func (f *File) Received() int64 { return f.received }

// Complete reports whether the declared size has been fully received.
func (f *File) Complete() bool { return f.Size > 0 && f.received >= f.Size }

// addRange merges [start, start+n) into the extent set and returns the
// number of newly covered bytes.
func (f *File) addRange(start, n int64) int64 {
	if n <= 0 {
		return 0
	}
	end := start + n
	// Find insertion window of overlapping extents.
	i := sort.Search(len(f.extents), func(k int) bool { return f.extents[k].End >= start })
	j := i
	newStart, newEnd := start, end
	var covered int64
	for j < len(f.extents) && f.extents[j].Start <= end {
		e := f.extents[j]
		covered += min(e.End, end) - max(e.Start, start)
		if e.Start < newStart {
			newStart = e.Start
		}
		if e.End > newEnd {
			newEnd = e.End
		}
		j++
	}
	fresh := (end - start) - covered
	if fresh < 0 {
		fresh = 0
	}
	merged := extent{newStart, newEnd}
	f.extents = append(f.extents[:i], append([]extent{merged}, f.extents[j:]...)...)
	f.received += fresh
	return fresh
}

// LogEntry records one replication/log operation.
type LogEntry struct {
	File   string
	Offset int64
	Bytes  int64
}

// Server is the DFS write server.
type Server struct {
	files map[string]*File

	// log is a bounded ring of the most recent replication operations.
	log     []LogEntry
	logHead int

	// Statistics.
	Chunks      uint64
	BytesStored uint64
	Duplicates  uint64
	Completed   uint64
}

// logCapacity bounds the in-memory operation log.
const logCapacity = 4096

// NewServer creates an empty DFS server.
func NewServer() *Server {
	return &Server{files: make(map[string]*File), log: make([]LogEntry, 0, logCapacity)}
}

// Create declares a file of the given size and replication factor.
func (s *Server) Create(name string, size int64, replicas int) (*File, error) {
	if _, dup := s.files[name]; dup {
		return nil, fmt.Errorf("dfs: file %q exists", name)
	}
	if replicas < 1 {
		replicas = 1
	}
	f := &File{Name: name, Size: size, Replicas: replicas}
	s.files[name] = f
	return f, nil
}

// File returns a file by name, or nil.
func (s *Server) File(name string) *File { return s.files[name] }

// WriteChunk ingests one chunk of a file. It returns the number of fresh
// bytes (0 for a full duplicate) and whether this write completed the
// file.
func (s *Server) WriteChunk(name string, offset, n int64) (fresh int64, completed bool, err error) {
	f := s.files[name]
	if f == nil {
		return 0, false, fmt.Errorf("dfs: unknown file %q", name)
	}
	if offset < 0 || n <= 0 {
		return 0, false, fmt.Errorf("dfs: bad chunk [%d,+%d)", offset, n)
	}
	if f.Size > 0 && offset+n > f.Size {
		return 0, false, fmt.Errorf("dfs: chunk [%d,+%d) beyond size %d", offset, n, f.Size)
	}
	wasComplete := f.Complete()
	fresh = f.addRange(offset, n)
	s.Chunks++
	if fresh == 0 {
		s.Duplicates++
	}
	s.BytesStored += uint64(fresh)
	s.appendLog(LogEntry{File: name, Offset: offset, Bytes: n})
	if !wasComplete && f.Complete() {
		s.Completed++
		return fresh, true, nil
	}
	return fresh, false, nil
}

func (s *Server) appendLog(e LogEntry) {
	if len(s.log) < logCapacity {
		s.log = append(s.log, e)
		return
	}
	s.log[s.logHead] = e
	s.logHead = (s.logHead + 1) % logCapacity
}

// LogLen returns the number of retained log entries.
func (s *Server) LogLen() int { return len(s.log) }
