module resilientos/benchmark

go 1.22

require resilientos v0.0.0

replace resilientos => ../
