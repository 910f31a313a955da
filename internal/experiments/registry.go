package experiments

// experiment is one entry of the registry: the CLI name and the
// function that renders its tables.
type experiment struct {
	name string
	run  func(Config) []Table
}

// one adapts a single-table experiment to the registry's signature.
func one(f func(Config) Table) func(Config) []Table {
	return func(c Config) []Table { return []Table{f(c)} }
}

// registry lists every experiment in paper order. All, ByName, Names,
// `ceio-bench -list` and the BenchmarkExperiments macro benchmarks all
// read this one table.
var registry = []experiment{
	{"fig4", Fig4},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", one(Fig11)},
	{"fig12", one(Fig12)},
	{"table2", one(Table2)},
	{"table3", one(Table3)},
	{"table4", one(Table4)},
	{"limits", Limits},
	{"ablation", func(c Config) []Table { return []Table{Ablation(c), SlowPathAblation(c)} }},
	{"burst", one(Burstiness)},
	{"tenants", Tenants},
	{"cores", one(Cores)},
	{"pipelines", one(Pipelines)},
	{"fleet", one(Fleet)},
	{"rdca", RDCA},
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
