//go:build !race

package dlsearch

const raceEnabled = false
