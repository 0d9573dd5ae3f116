package core

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"

	"cmpsim/internal/cpu"
	"cmpsim/internal/mem"
)

// Checkpoint captures a machine's functional state — the physical memory
// image and every hardware context — mirroring the paper's methodology
// (Section 3.2): "The checkpoint saves the internal state of CPU and main
// memory and provides a common starting point for simulating the three
// architectures."
//
// Timing state (cache tags, bank clocks, statistics) is deliberately not
// captured: as in SimOS, a restored simulation starts with cold caches.
// Host-side trap-handler state (the pmake scheduler's process table) is
// also outside the checkpoint, so checkpoints apply to the
// single-address-space workloads.
type Checkpoint struct {
	Mem      mem.Snapshot
	Contexts []cpu.Context
}

func init() {
	// The Space interface field inside cpu.Context needs its concrete
	// types registered for gob.
	gob.Register(mem.Identity{})
	gob.Register(mem.Proc{})
}

// Checkpoint snapshots the machine's functional state.
func (m *Machine) Checkpoint() *Checkpoint {
	c := &Checkpoint{Mem: m.Img.Snapshot()}
	for _, core := range m.CPUs {
		c.Contexts = append(c.Contexts, *core.Context())
	}
	return c
}

// Restore overwrites the machine's functional state from a checkpoint.
// The machine must have the same memory size and CPU count (typically: a
// freshly Configure()d machine of any architecture).
func (m *Machine) Restore(c *Checkpoint) error {
	if len(c.Contexts) != len(m.CPUs) {
		return fmt.Errorf("core: checkpoint has %d contexts, machine has %d CPUs",
			len(c.Contexts), len(m.CPUs))
	}
	if err := m.Img.RestoreSnapshot(c.Mem); err != nil {
		return err
	}
	for i, core := range m.CPUs {
		*core.Context() = c.Contexts[i]
		core.FlushFetchBuffer()
	}
	return nil
}

// WriteCheckpoint serializes a checkpoint (gob, gzip-compressed).
func WriteCheckpoint(w io.Writer, c *Checkpoint) error {
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(c); err != nil {
		zw.Close()
		return fmt.Errorf("core: encode checkpoint: %w", err)
	}
	return zw.Close()
}

// ReadCheckpoint deserializes a checkpoint written by WriteCheckpoint.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("core: read checkpoint: %w", err)
	}
	defer zr.Close()
	var c Checkpoint
	if err := gob.NewDecoder(zr).Decode(&c); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint: %w", err)
	}
	return &c, nil
}
