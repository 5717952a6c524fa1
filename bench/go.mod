module polygraph/bench

go 1.22

require polygraph v0.0.0

replace polygraph => ../
