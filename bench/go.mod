module f4t/bench

go 1.22

require f4t v0.0.0

replace f4t => ../
