module mvgc/benchmark

go 1.24

require mvgc v0.0.0

replace mvgc => ../
