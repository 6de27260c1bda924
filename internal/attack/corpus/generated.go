// Parameterized vulnerable programs for the entropy-curve experiment (E9):
// Listing 1 with a configurable number of extra frame objects. The paper's
// §II argues a randomization defense's strength is exactly the entropy it
// adds; these programs make that claim measurable.

package corpus

import (
	"fmt"
	"strings"
)

// maxSpills bounds Listing1WithSpills' extra frame objects.
const maxSpills = 24

// spilled holds the Listing1WithSpills programs, indexed by spill count.
var spilled [maxSpills + 1]shared

// Listing1WithSpills returns the Listing 1 dispatcher with extra dead
// spill slots in the vulnerable frame, spills clamped to [0, 24]. More
// objects mean more permutations for the same attack surface. Each
// clamped count compiles once and is shared, like the named programs.
func Listing1WithSpills(spills int) *Program {
	spills = min(max(spills, 0), maxSpills)
	return spilled[spills].get(func() *Program { return buildSpills(spills) })
}

// buildSpills compiles the Listing 1 dispatcher with the given number of
// extra spill slots.
func buildSpills(spills int) *Program {
	var decls, inits strings.Builder
	for i := 0; i < spills; i++ {
		fmt.Fprintf(&decls, "\tlong spill%d;\n", i)
		fmt.Fprintf(&inits, "\tspill%d = %d;\n", i, 11*(i+1))
	}
	src := fmt.Sprintf(`
// Listing 1 with %d extra frame objects (entropy sweep).
long result;

void dispatch() {
	char buf[64];
	long ctr;
	long size;
	long step;
	long req;
%s	ctr = 0;
	size = 0;
	step = 1;
	req = 9;
%s	while (ctr < 8) {
		input(buf, 512);
		if (req == 0) { size += step; }
		else {
			if (req == 1) { size -= step; }
			else { step = req; }
		}
		ctr = ctr + 1;
	}
	result = size;
}

long main() {
	dispatch();
	print(result);
	return 0;
}
`, spills, decls.String(), inits.String())
	return build(fmt.Sprintf("listing1-spill%d", spills), "dispatch", "buf", src)
}
