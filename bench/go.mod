module cellcars/bench

go 1.22

require cellcars v0.0.0

replace cellcars => ../
