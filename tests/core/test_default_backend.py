"""The default selection backend follows the measured rule.

With no ``backend=`` argument a solver runs ``"incremental"`` when
``max_processors`` bounds the selection and ``"rescan"`` otherwise
(:func:`repro.core.parallel_solve.resolve_backend`).  Only the
incremental frontier index emits ``frontier.*`` counters, so a
recorder shows which backend ran.
"""

from __future__ import annotations

import pytest

from repro.core import frontier, parallel_solve, saturation_solve, team_solve
from repro.core.alphabeta import parallel_alpha_beta, sequential_alpha_beta
from repro.core.nodeexpansion import n_parallel_solve
from repro.core.parallel_solve import resolve_backend
from repro.serve import run_algorithm
from repro.telemetry import InMemoryRecorder
from repro.trees.generators import iid_boolean, iid_minmax
from repro.trees.generators.iid import level_invariant_bias


def _boolean():
    return iid_boolean(2, 6, level_invariant_bias(2), seed=5)


def _minmax():
    return iid_minmax(2, 6, seed=5)


def _frontier_counters(run):
    rec = InMemoryRecorder()
    run(rec)
    return sorted(
        name for name in rec.metrics.counters
        if name.startswith("frontier.")
    )


def test_bounded_selection_runs_incremental():
    assert _frontier_counters(
        lambda rec: parallel_solve(
            _boolean(), 2, max_processors=2, recorder=rec
        )
    )


@pytest.mark.parametrize("label, run", [
    ("parallel", lambda rec: parallel_solve(_boolean(), 2, recorder=rec)),
    ("team", lambda rec: team_solve(_boolean(), 4, recorder=rec)),
    ("saturation", lambda rec: saturation_solve(_boolean(), recorder=rec)),
    ("sequential-ab",
     lambda rec: sequential_alpha_beta(_minmax(), recorder=rec)),
    ("parallel-ab",
     lambda rec: parallel_alpha_beta(_minmax(), 2, recorder=rec)),
    ("n-parallel",
     lambda rec: n_parallel_solve(_boolean(), 1, recorder=rec)),
])
def test_unbounded_selection_runs_rescan(label, run):
    assert _frontier_counters(run) == []


@pytest.fixture
def frontier_binds(monkeypatch):
    """Count incremental frontier indexes built (serve has no recorder)."""
    binds = []
    original = frontier.FrontierIndex.__init__

    def counting_init(self, *args, **kwargs):
        binds.append(type(self).__name__)
        original(self, *args, **kwargs)

    monkeypatch.setattr(frontier.FrontierIndex, "__init__", counting_init)
    return binds


@pytest.mark.parametrize("algo, tree", [
    ("team", _boolean()),
    ("parallel", _boolean()),
    ("nparallel", _boolean()),
    ("sequential_ab", _minmax()),
    ("parallel_ab", _minmax()),
])
def test_serve_without_backend_param_runs_rescan(
    algo, tree, frontier_binds
):
    outcome = run_algorithm(algo, tree, {})
    assert frontier_binds == []
    assert outcome == run_algorithm(algo, tree, {"backend": "incremental"})
    assert frontier_binds


def test_explicit_backend_wins():
    assert resolve_backend("incremental") == "incremental"
    assert resolve_backend("arena", max_processors=2) == "arena"
    assert resolve_backend("rescan", max_processors=2) == "rescan"
    assert resolve_backend(None) == "rescan"
    assert resolve_backend(None, max_processors=2) == "incremental"
    assert _frontier_counters(
        lambda rec: parallel_solve(
            _boolean(), 2, backend="incremental", recorder=rec
        )
    )
    with pytest.raises(ValueError):
        resolve_backend("auto")
