// Package beta exercises cross-package loading and directives.
package beta

import "alpha"

func C() int {
	//mnoclint:allow flagret covered by the engine test
	return alpha.A()
}

func D() int {
	return alpha.B()
}

//mnoclint:nonsense not a verb
//mnoclint:allow
//mnoclint:allow unknownanalyzer some reason
//mnoclint:allow flagret

// E never returns a value; the allow directive below it is stale by
// design, pinning the unused-allow diagnostic.
//mnoclint:allow flagret exercises the stale-allow diagnostic
func E() {}

// F carries a retired hot-root marker, now an unknown directive.
//
//mnoclint:hot
func F() {}
