// Package fixture is the root package of the census's test module: it
// aliases thing.Thing, so Thing's methods are its public surface.
package fixture

import "fixture/internal/thing"

// Thing is the library's one type.
type Thing = thing.Thing

// New builds a Thing.
var New = thing.New
