package experiments

// experiment is one entry of the registry: the CLI name, the function
// that renders its tables, and the column sets its cells read (see
// measure.go; fig4 and fig10 read the workload rate sampler instead).
type experiment struct {
	name string
	run  func(Config) []Table
	cols [][]col
}

// one adapts a single-table experiment to the registry's signature.
func one(f func(Config) Table) func(Config) []Table {
	return func(c Config) []Table { return []Table{f(c)} }
}

// registry lists every experiment in paper order. All, ByName, Names,
// `ceio-bench -list` and the BenchmarkExperiments macro benchmarks all
// read this one table.
var registry = []experiment{
	{"fig4", Fig4, nil},
	{"fig9", Fig9, [][]col{fig9Cols}},
	{"fig10", Fig10, nil},
	{"fig11", one(Fig11), [][]col{pathCols}},
	{"fig12", one(Fig12), [][]col{fig12Cols}},
	{"table2", one(Table2), [][]col{table2Cols}},
	{"table3", one(Table3), [][]col{pathCols}},
	{"table4", one(Table4), [][]col{table4Cols}},
	{"limits", Limits, [][]col{lowPressureCols, jumboCols}},
	{"ablation", func(c Config) []Table { return []Table{Ablation(c), SlowPathAblation(c)} }, [][]col{ablationCols, pathCols}},
	{"burst", one(Burstiness), [][]col{burstCols}},
	{"tenants", Tenants, [][]col{tenantCols}},
	{"cores", one(Cores), [][]col{coresCols}},
	{"pipelines", one(Pipelines), [][]col{pipelinesCols}},
	{"fleet", one(Fleet), [][]col{fleetCols}},
	{"rdca", RDCA, [][]col{rdcaLatencyCols, rdcaBurstCols}},
}

// All runs every experiment and returns the tables in paper order.
// With a pool configured, whole experiments execute concurrently (their
// leaf runs share the pool's global bound); the tables still render in
// paper order because each group keeps its indexed slot.
func All(cfg Config) []Table {
	runs := make([]func(Config) []Table, len(registry))
	for i, e := range registry {
		runs[i] = e.run
	}
	return tableGroups(cfg, runs)
}

// ByName resolves an experiment by CLI name: a registry entry, one of
// the fig4a/fig4b aliases for fig4, or "all".
func ByName(name string, cfg Config) ([]Table, bool) {
	switch name {
	case "all":
		return All(cfg), true
	case "fig4a", "fig4b":
		name = "fig4"
	}
	for _, e := range registry {
		if e.name == name {
			return e.run(cfg), true
		}
	}
	return nil, false
}

// Names lists the registry's experiment names in paper order, then
// "all".
func Names() []string {
	names := make([]string, 0, len(registry)+1)
	for _, e := range registry {
		names = append(names, e.name)
	}
	return append(names, "all")
}
