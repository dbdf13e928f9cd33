package apps

import "flag"

// Register declares the shared flags, once each, as the rows that count
// on this file want.
func Register(fs *flag.FlagSet) {
	fs.String("locator", "fwdptr", "home locator")
	fs.Bool("nopiggyback", false, "disable diff piggybacking")
	fs.Uint64("seed", 0, "input seed")
}
