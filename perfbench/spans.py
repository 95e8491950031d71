"""In-memory span tracer that wraps nlhelm's public functions from outside.

Each target is patched at the attribute its caller looks it up through (a
module global such as ``nlhelm.solvers.sparse_lu_solve``, or a class
attribute such as ``KerrSystem.jacobian_real``), so the package itself is
unchanged. A span records name, start, end, parent span and run id; spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


def targets():
    """(owner, attribute, span name) for every traced call boundary."""
    from nlhelm import _system, beams, cli, helmholtz_1d, helmholtz_nd, solvers

    return [
        (solvers, "solve", "solvers.solve"),
        (solvers, "sparse_lu_solve", "solvers.sparse_lu_solve"),
        (solvers, "to_real_split", "fields.real_split"),
        (solvers, "from_real_split", "fields.real_split"),
        (_system.KerrSystem, "jacobian_real", "system.jacobian_real"),
        (_system.KerrSystem, "residual_complex", "system.residual_complex"),
        (_system.KerrSystem, "frozen_operator", "system.frozen_operator"),
        (helmholtz_nd.HelmholtzProblem, "__init__", "helmholtz_nd.build"),
        (helmholtz_nd.HelmholtzProblem, "vacuum_solve", "helmholtz_nd.vacuum_solve"),
        (helmholtz_nd.HelmholtzProblem, "vacuum_operator", "helmholtz_nd.vacuum_operator"),
        (helmholtz_nd, "build_transverse_suite", "transverse.suite"),
        (helmholtz_nd, "eigensolve_transverse", "transverse.eigensolve"),
        (helmholtz_1d.Problem1D, "__init__", "helmholtz_1d.build"),
        (helmholtz_1d.Problem1D, "vacuum_solve", "helmholtz_1d.vacuum_solve"),
        (helmholtz_1d, "transfer_matrix_linear", "helmholtz_1d.oracle"),
        (beams, "make_incoming", "beams.incoming"),
        (cli, "make_incoming", "beams.incoming"),
        (beams, "nls_march", "beams.nls_march"),
        (beams, "poynting_flux", "beams.flux"),
        (cli, "poynting_flux", "beams.flux"),
        (cli, "build_problem", "cli.build_problem"),
        (cli, "write_outputs", "cli.write"),
        (cli, "read_field", "cli.read"),
    ]


class Tracer:
    """Records nested spans of one thread; install() patches, remove() undoes."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self, boundaries):
        for owner, attr, name in boundaries:
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def remove(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self time (duration minus the time covered by
        direct children) and number of calls."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for s in self.spans:
            self_s[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
            calls[s["name"]] += 1
        return dict(self_s), dict(calls)
