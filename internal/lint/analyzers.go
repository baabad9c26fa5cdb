package lint

// All returns the full mcsdlint analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		ChanBound,
		CtxFlow,
		DeadExport,
		FSDiscipline,
		GoRoLeak,
		LockHold,
		MetricKey,
		SimDet,
		WireWrap,
	}
}
