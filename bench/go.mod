module lbmm/bench

go 1.22

require lbmm v0.0.0

replace lbmm => ../
