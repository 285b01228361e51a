//go:build race

package pipeline_test

// raceEnabled: the race detector's sync.Pool drops a share of puts at
// random, so pooled buffers are not reliably recycled.
const raceEnabled = true
