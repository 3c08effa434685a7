module github.com/pdftsp/pdftsp/benchmark

go 1.22

require github.com/pdftsp/pdftsp v0.0.0

replace github.com/pdftsp/pdftsp => ../
