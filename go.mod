module ting

go 1.24
