package core

import (
	"cmpsim/internal/cpu"
	"cmpsim/internal/cpu/mxs"
	"cmpsim/internal/memsys"
)

func init() {
	newMXSCore = func(id int, ctx *cpu.Context, m *Machine, cfg memsys.Config) Core {
		c := mxs.New(id, ctx, m.gatedSys(id), m.Code, m.gatedTrap(id), m.Img, cfg.LineBytes)
		if m.par != nil {
			// MXS reads the shared guest image directly at graduation
			// (load refresh), outside any memory-system call; it must
			// take the tick gate itself before doing so.
			c.SetTickGate(m.par.gate(id))
		}
		if cfg.Trace != nil {
			c.SetTracer(cfg.Trace)
		}
		if cfg.Prof != nil {
			c.SetProfiler(cfg.Prof)
		}
		return c
	}
}
