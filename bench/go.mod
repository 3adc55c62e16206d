module livenet/bench

go 1.22

require livenet v0.0.0

replace livenet => ../
