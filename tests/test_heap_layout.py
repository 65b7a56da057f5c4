"""A transform search's page faults do not depend on how the heap was laid out.

The search tabulates each trial as one row of w and w′ and scores the rows
in blocks of at most ``_BLOCK_BYTES``.  When its temporaries came in 96 KiB
blocks from the top of glibc's heap, what a process had allocated before
decided whether the heap top was trimmed and grown again on every block:
the same classify rounds took about 6000 minor page faults each in one
process and none in another, by whether sympy had been imported first or
by the length of the checkout's path.  Fresh interpreters classify five
families in rounds, in both orders, with and without ``import sympy``
first; after the first round, which pays for first use, each round must
stay under 100 minor faults of the process's own (``getrusage``).
"""

import json
import subprocess
import sys

import pytest

PROBE = """
import json, resource, sys
if sys.argv[2] == "sympy":
    import sympy
from susyqm import SuperpotentialFamily, classify_family, make_grid

cases = [("a*x^3", {"a": 1.1}), ("a*x^3 + b*x", {"a": 1.0, "b": 0.5}),
         ("A - exp(-x)", {"A": 3.0}), ("A*tanh(x)", {"A": 3.0}), ("a*x", {"a": 1.0})]
if sys.argv[1] == "reverse":
    cases.reverse()
families = [(SuperpotentialFamily.from_expression(text, domain=(-6.0, 6.0)), a0)
            for text, a0 in cases]
grid = make_grid(-6.0, 6.0, 2001)
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for family, a0 in families:
        classify_family(family, a0, grid)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="minor page faults as Linux counts them")
@pytest.mark.parametrize("pad", ["none", "sympy"])
@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_classify_rounds_take_no_page_faults(order, pad, tmp_path, package_env):
    proc = subprocess.run([sys.executable, "-c", PROBE, order, pad], env=package_env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout)
    assert max(faults[1:]) < 100, faults
