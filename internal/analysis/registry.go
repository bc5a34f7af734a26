package analysis

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Maporder, Detrand, Noalloc}
}
