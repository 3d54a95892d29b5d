package main

import "testing"

// TestTrimProcs pins the name normalisation -compare matches on: only a
// trailing -<digits> (the GOMAXPROCS suffix `go test` appends when it is
// not 1) is removed, including after a sub-benchmark path.
func TestTrimProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkTable1_BlockTasks":   "BenchmarkTable1_BlockTasks",
		"BenchmarkTable1_BlockTasks-2": "BenchmarkTable1_BlockTasks",
		"BenchmarkDecode_AVX2/Z27-16":  "BenchmarkDecode_AVX2/Z27",
		"BenchmarkDecode_AVX2/Z27":     "BenchmarkDecode_AVX2/Z27",
		"BenchmarkFoo-bar":             "BenchmarkFoo-bar",
		"BenchmarkFoo-":                "BenchmarkFoo-",
	} {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}
