// Command dsmtrace stands in for a what-if that builds its own policies.
package main

import "repro/internal/migration"

func main() {
	var p migration.Policy = migration.NoHM{} // want `a what-if runs the builtin policies: migration.NoHM literal`
	_ = p
}
