// Sor re-implements an application internal/apps already has.
package main // want `the examples do not restate internal/apps: package outside examples/patterns/, examples/quickstart/`

func main() {}
