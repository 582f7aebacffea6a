module fluxpower/bench

go 1.22

require fluxpower v0.0.0

replace fluxpower => ../
