package platform

// FleetYear records the fleet state for one calendar year: how many new
// FPGA device models entered production and the total accelerator count
// deployed. The series reproduces the shape of Fig. 3c — both the
// variety of new devices per year and the total fleet grow every year —
// with synthetic magnitudes (the paper reports "tens of thousands" of
// accelerators by 2024).
type FleetYear struct {
	Year       int
	NewDevices int
	TotalFPGAs int
}

// FleetHistory returns the 2020-2024 deployment series.
func FleetHistory() []FleetYear {
	return []FleetYear{
		{Year: 2020, NewDevices: 1, TotalFPGAs: 4_000},
		{Year: 2021, NewDevices: 2, TotalFPGAs: 9_000},
		{Year: 2022, NewDevices: 3, TotalFPGAs: 16_000},
		{Year: 2023, NewDevices: 4, TotalFPGAs: 25_000},
		{Year: 2024, NewDevices: 5, TotalFPGAs: 38_000},
	}
}
