module ringo/benchmark

go 1.24

require ringo v0.0.0

replace ringo => ../
