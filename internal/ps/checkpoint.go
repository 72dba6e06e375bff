package ps

import (
	"errors"
	"fmt"
	"os"

	"mamdr/internal/core"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
)

// CheckpointStore is the optional capability the trainer uses for
// epoch-boundary checkpointing: the store persists its full state
// (parameters, outer-optimizer state, epoch cursor) to its
// own configured location. The in-process Server and the RPC Client
// both implement it; over RPC the snapshot lands on the server's disk,
// which is what survives a worker-side crash.
type CheckpointStore interface {
	// SaveCheckpoint persists the current state with epoch as the
	// number of fully completed training epochs.
	SaveCheckpoint(epoch int) error
	// LoadCheckpoint restores the last saved state and returns its
	// epoch cursor; (-1, nil) means no checkpoint exists yet.
	LoadCheckpoint() (int, error)
}

var _ CheckpointStore = (*Server)(nil)

// serverCheckpoint is the gob payload of a PS checkpoint: every managed
// tensor's values plus the outer optimizer's state over them in
// ascending tensor-index order. Shards holds exactly one entry; the
// field keeps its name and slice shape so checkpoints written by
// earlier cluster shard servers still decode, while a multi-entry file
// from the retired lock-striped server is refused rather than
// half-restored.
type serverCheckpoint struct {
	Params paramvec.Vector
	Shards []optim.State
	Epoch  int
}

// SetCheckpointPath configures where SaveCheckpoint/LoadCheckpoint
// persist the server's snapshot. Set before serving traffic.
func (s *Server) SetCheckpointPath(path string) { s.ckptPath = path }

// SaveCheckpoint implements CheckpointStore: it writes the server's
// parameters, outer-optimizer state, and the completed-epoch cursor to
// the configured path crash-safely (temp file + fsync + rename,
// CRC-guarded envelope). Taken at an epoch boundary — when no pushes
// are in flight — the snapshot is globally consistent.
func (s *Server) SaveCheckpoint(epoch int) error {
	if s.ckptPath == "" {
		return errors.New("ps: no checkpoint path configured on the server")
	}
	ck := serverCheckpoint{Params: s.Snapshot(), Epoch: epoch}
	s.mu.Lock()
	var st optim.State
	if so, ok := s.opt.(optim.Stateful); ok {
		st = so.CaptureState(s.data)
	}
	s.mu.Unlock()
	ck.Shards = []optim.State{st}
	return core.SaveGob(s.ckptPath, ck)
}

// LoadCheckpoint implements CheckpointStore: it restores parameters and
// optimizer state from the configured path and returns the epoch cursor
// the run should continue from, or (-1, nil) when no checkpoint file
// exists. Per-worker push sequences reset on load — a resumed run
// spawns fresh workers whose sequences restart at 1.
func (s *Server) LoadCheckpoint() (int, error) {
	if s.ckptPath == "" {
		return 0, errors.New("ps: no checkpoint path configured on the server")
	}
	if _, err := os.Stat(s.ckptPath); os.IsNotExist(err) {
		return -1, nil
	}
	var ck serverCheckpoint
	if err := core.LoadGob(s.ckptPath, &ck); err != nil {
		return 0, err
	}
	if len(ck.Params) != s.layout.NumTensors() {
		return 0, fmt.Errorf("ps: checkpoint %s has %d tensors, server manages %d", s.ckptPath, len(ck.Params), s.layout.NumTensors())
	}
	if len(ck.Shards) != 1 {
		return 0, fmt.Errorf("ps: checkpoint %s holds %d optimizer states, a server has one (written by the retired lock-striped server?)", s.ckptPath, len(ck.Shards))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for t, vals := range ck.Params {
		if len(s.data[t].Data) != len(vals) {
			return 0, fmt.Errorf("ps: checkpoint tensor %d has %d values, server tensor has %d", t, len(vals), len(s.data[t].Data))
		}
	}
	for t, vals := range ck.Params {
		copy(s.data[t].Data, vals)
	}
	if st := ck.Shards[0]; !st.Empty() {
		so, ok := s.opt.(optim.Stateful)
		if !ok {
			return 0, fmt.Errorf("ps: checkpoint carries %q optimizer state but the outer optimizer cannot restore state", st.Name)
		}
		if err := so.RestoreState(s.data, st); err != nil {
			return 0, fmt.Errorf("ps: restore outer optimizer: %w", err)
		}
	}
	s.seqMu.Lock()
	s.lastSeq = map[int]int64{}
	s.seqMu.Unlock()
	return ck.Epoch, nil
}
