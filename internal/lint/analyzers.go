package lint

// All returns every amglint analyzer in stable order: the five
// repo-contract analyzers plus nilderef, the general pass that stands in
// for x/tools' nilness in the offline build. Copied locks need no pass
// here: go vet's own copylocks check runs beside amglint in make check
// and CI.
func All() []*Analyzer {
	return []*Analyzer{
		HotAlloc,
		DetOrder,
		CtxPoll,
		SentinelIs,
		AtomicField,
		NilDeref,
	}
}
