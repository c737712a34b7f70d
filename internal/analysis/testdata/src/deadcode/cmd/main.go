// Command cmd is the deadcode fixture's package main.
package main

import lib "prosper/internal/fixdead"

func main() { lib.MainOnly() }
