module nonrep/benchmarks

go 1.24

require nonrep v0.0.0

replace nonrep => ../
