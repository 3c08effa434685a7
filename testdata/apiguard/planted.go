// Package planted is the planted module's root package. Its exported API
// is no root: only a main reaches code.
package planted

// Version is exported from the root package, and no main calls it.
func Version() string { return "v0" }
