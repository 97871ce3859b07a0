module govolve/benchmark

go 1.22

require govolve v0.0.0

replace govolve => ../
