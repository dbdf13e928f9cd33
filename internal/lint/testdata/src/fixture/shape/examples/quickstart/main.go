// Quickstart is an example the row lists.
package main

func main() {}
