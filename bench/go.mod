module dlsearch/bench

go 1.24

require dlsearch v0.0.0

replace dlsearch => ../
