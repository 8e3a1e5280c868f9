// Package refgp is a frozen copy of the placement engine: internal/placer,
// the packages it imports, and internal/synth, as they were when the
// benchmark was written, with only their import paths changed. The benchmark
// times a global placement by this copy next to the program's own work and
// scales the program's times by it (gauge.go), so that the host's changing
// speed cancels and the program's does not. Do not edit these packages to
// follow the program: a reference that changes with the program would cancel
// the program's own speed-ups and slow-downs.
package refgp
