module hyrise/bench

go 1.23

require hyrise v0.0.0

replace hyrise => ../
