"""The benchmark's span tracer patches nlhelm from outside; every boundary it
traces must stay a class or module attribute of its owner, or a traced
benchmark run fails at install. A traced pass also fails when a workload
stops making one of its expected calls (say, its one sparse LU), so each
workload is run once under the tracer here. A workload's build assembles no
A_lin or C: its solves assemble what they iterate on. The tracer and the
workloads are read by path, never imported as a package, and nothing is
written next to them."""

import gc
import runpy
from pathlib import Path

import pytest

from nlhelm import helmholtz_nd

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def test_every_traced_boundary_is_defined_on_its_owner():
    targets = runpy.run_path(str(SPANS))["targets"]()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in targets if attr not in vars(owner)]
    assert not missing


@pytest.mark.parametrize("name", ["soliton-cart", "collapse-cyl", "small-batch"])
def test_build_assembles_nothing(name, monkeypatch):
    calls = []
    assemble = helmholtz_nd._assemble
    monkeypatch.setattr(helmholtz_nd, "_assemble",
                        lambda *args: calls.append(args[0]) or assemble(*args))
    gc.collect()  # no operator left over from an earlier test is found
    workload = runpy.run_path(str(WORKLOADS), run_name="perfbench_workloads")[
        "WORKLOADS"][name]
    state = workload.build(3)
    assert calls == []
    del state


@pytest.mark.slow
@pytest.mark.parametrize("name", ["soliton-cart", "collapse-cyl", "small-batch"])
def test_traced_pass_fires_every_expected_span(name, tmp_path):
    spans = runpy.run_path(str(SPANS))
    bench = runpy.run_path(str(WORKLOADS), run_name="perfbench_workloads")
    workload, rec = bench["WORKLOADS"][name], bench["Recorder"]()
    tracer = spans["Tracer"](run_id=name)
    tracer.install(spans["targets"]())
    try:
        workload.execute(workload.build(3), rec, tmp_path)
    finally:
        tracer.remove()
    assert rec.failures == []
    _, calls = tracer.summary()
    assert sorted(workload.spans - calls.keys()) == []
