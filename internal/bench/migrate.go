package bench

import "harmonia/internal/fleet"

// fleet4 — the live-migration drill. The same deterministic failover
// (backend drained mid-run, then the most-loaded device killed) runs
// twice: a cold restart that re-pins established flows from scratch,
// and a migrated failover that carries the connection table to the
// replacement over the command path. The report holds both cases next
// to the Maglev re-hash bound so the claim — migration disrupts
// strictly fewer flows, and no more than the pool change itself forced
// — is machine-checkable.

// migrateDevices is the fleet4 drill size: big enough for real
// failover choices, small enough for CI's bench-smoke job.
const migrateDevices = 3

// MigrationReport is the machine-readable fleet4 artifact
// (BENCH_migrate.json).
type MigrationReport struct {
	Experiment string `json:"experiment"` // always "fleet4"
	App        string `json:"app"`
	Devices    int    `json:"devices"`
	Backends   int    `json:"backends"`
	Killed     string `json:"killed"`

	// MaglevBound is the fraction of the consistent-hash table the
	// mid-run backend drain remapped — the disruption floor any
	// failover strategy is judged against.
	MaglevBound float64 `json:"maglev_bound"`

	Cold     fleet.MigrationCase `json:"cold"`
	Migrated fleet.MigrationCase `json:"migrated"`

	// The acceptance gates, pre-evaluated so CI can assert on the
	// artifact without re-deriving them.
	StrictlyFewer bool `json:"strictly_fewer"`
	WithinBound   bool `json:"within_bound"`
}

// FleetMigrationReport runs the fleet4 drill and evaluates its gates.
func FleetMigrationReport() (*MigrationReport, *fleet.MigrationDrillResult, error) {
	t := fleet.DefaultTraffic(cpApp)
	d, err := fleet.MigrationDrill(fleet.DefaultConfig(), migrateDevices, t)
	if err != nil {
		return nil, nil, err
	}
	rep := &MigrationReport{
		Experiment:  "fleet4",
		App:         cpApp,
		Devices:     d.Devices,
		Backends:    d.Backends,
		Killed:      d.Killed,
		MaglevBound: d.MaglevBound,
		Cold:        d.Cold,
		Migrated:    d.Migrated,
	}
	rep.StrictlyFewer = d.Migrated.Disrupted < d.Cold.Disrupted
	rep.WithinBound = d.Migrated.Disruption <= d.MaglevBound
	return rep, d, nil
}

// Gates reports whether every fleet4 acceptance gate held.
func (r *MigrationReport) Gates() bool { return r.StrictlyFewer && r.WithinBound }
