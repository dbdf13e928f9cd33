package telemetry

// names dedupes series names while writing the exposition: a map is fine
// here.
func names(series []string) int {
	seen := map[string]bool{}
	for _, s := range series {
		seen[s] = true
	}
	return len(seen)
}
