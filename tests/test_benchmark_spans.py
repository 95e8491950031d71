"""The benchmark's span tracer patches nlhelm from outside; every boundary it
traces must stay a class or module attribute of its owner, or a traced
benchmark run fails at install. The tracer is read by path, never imported
as a package, and nothing is written next to it."""

import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_boundary_is_defined_on_its_owner():
    targets = runpy.run_path(str(SPANS))["targets"]()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in targets if attr not in vars(owner)]
    assert not missing
