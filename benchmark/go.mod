module cmpsim/benchmark

go 1.22

require cmpsim v0.0.0

replace cmpsim => ../
