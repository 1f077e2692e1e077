"""Algorithm dispatch for the batch-evaluation service.

Maps the wire-level algorithm names onto the repository's engines and
normalises their heterogeneous result types to one ``(value, steps,
work)`` triple.  :func:`evaluate_payload` is the module-level worker
function the per-shard :class:`~repro.models.executors.OracleRuntime`
pools execute — it takes a plain dict (picklable across process
boundaries), rebuilds the tree, runs the engine and returns a plain
dict, so a shard worker needs nothing but this module importable.

Every engine here is deterministic given the request content, which
is what makes cached and freshly computed responses
indistinguishable.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..errors import UnknownAlgorithmError
from ..trees.base import GameTree
from ..trees.io import require_field, tree_from_dict

__all__ = [
    "ALGORITHMS",
    "BOOLEAN_ALGORITHMS",
    "MINMAX_ALGORITHMS",
    "run_algorithm",
    "evaluate_payload",
]

#: value, model steps (ticks for the machine), total work.
EngineOutcome = Tuple[float, int, int]
#: Params are wire-level: widths/processor counts plus an optional
#: ``backend`` string for the frontier-backend-capable engines (absent:
#: the engine's own default, see
#: :func:`repro.core.parallel_solve.resolve_backend`).
EngineFn = Callable[[GameTree, Mapping[str, Any]], EngineOutcome]


def _backend(params: Mapping[str, Any]) -> Optional[str]:
    backend: Optional[str] = params.get("backend")
    return backend


def _executor(params: Mapping[str, Any]) -> str:
    executor: str = params.get("executor", "inline")
    return executor


def _sequential(tree: GameTree, params: Mapping[str, Any]) -> EngineOutcome:
    from ..core import sequential_solve

    res = sequential_solve(tree)
    return float(res.value), res.num_steps, res.total_work


def _team(tree: GameTree, params: Mapping[str, Any]) -> EngineOutcome:
    from ..core import team_solve

    res = team_solve(
        tree, params.get("processors", 4), backend=_backend(params),
        executor=_executor(params),
    )
    return float(res.value), res.num_steps, res.total_work


def _parallel(tree: GameTree, params: Mapping[str, Any]) -> EngineOutcome:
    from ..core import parallel_solve

    res = parallel_solve(
        tree, params.get("width", 1), backend=_backend(params),
        executor=_executor(params),
    )
    return float(res.value), res.num_steps, res.total_work


def _nsequential(
    tree: GameTree, params: Mapping[str, Any]
) -> EngineOutcome:
    from ..core.nodeexpansion import n_sequential_solve

    res = n_sequential_solve(tree)
    return float(res.value), res.num_steps, res.total_work


def _nparallel(tree: GameTree, params: Mapping[str, Any]) -> EngineOutcome:
    from ..core.nodeexpansion import n_parallel_solve

    res = n_parallel_solve(
        tree, params.get("width", 1), backend=_backend(params)
    )
    return float(res.value), res.num_steps, res.total_work


def _machine(tree: GameTree, params: Mapping[str, Any]) -> EngineOutcome:
    from ..simulator import simulate

    res = simulate(tree, physical_processors=params.get("processors"))
    return float(res.value), res.ticks, res.expansions


def _alphabeta(tree: GameTree, params: Mapping[str, Any]) -> EngineOutcome:
    from ..core.alphabeta import alpha_beta

    res = alpha_beta(tree)
    return float(res.value), res.num_steps, res.total_work


def _sequential_ab(
    tree: GameTree, params: Mapping[str, Any]
) -> EngineOutcome:
    from ..core.alphabeta import sequential_alpha_beta

    res = sequential_alpha_beta(
        tree, backend=_backend(params), executor=_executor(params)
    )
    return float(res.value), res.num_steps, res.total_work


def _nsequential_ab(
    tree: GameTree, params: Mapping[str, Any]
) -> EngineOutcome:
    from ..core.nodeexpansion import n_sequential_alpha_beta

    res = n_sequential_alpha_beta(tree)
    return float(res.value), res.num_steps, res.total_work


def _nparallel_ab(
    tree: GameTree, params: Mapping[str, Any]
) -> EngineOutcome:
    from ..core.nodeexpansion import n_parallel_alpha_beta

    res = n_parallel_alpha_beta(tree, params.get("width", 1))
    return float(res.value), res.num_steps, res.total_work


def _parallel_ab(tree: GameTree, params: Mapping[str, Any]) -> EngineOutcome:
    from ..core.alphabeta import parallel_alpha_beta

    res = parallel_alpha_beta(
        tree, params.get("width", 1), backend=_backend(params),
        executor=_executor(params),
    )
    return float(res.value), res.num_steps, res.total_work


def _scout(tree: GameTree, params: Mapping[str, Any]) -> EngineOutcome:
    from ..core.alphabeta import scout

    res = scout(tree)
    return float(res.value), res.num_steps, res.total_work


def _sss(tree: GameTree, params: Mapping[str, Any]) -> EngineOutcome:
    from ..core.alphabeta import sss_star

    res = sss_star(tree)
    return float(res.value), res.num_steps, res.total_work


def _minimax(tree: GameTree, params: Mapping[str, Any]) -> EngineOutcome:
    from ..core.alphabeta import minimax

    res = minimax(tree)
    return float(res.value), res.num_steps, res.total_work


#: Wire names -> engine adapters.  Boolean-tree algorithms first,
#: then the MIN/MAX family.
ALGORITHMS: Dict[str, EngineFn] = {
    "sequential": _sequential,
    "team": _team,
    "parallel": _parallel,
    "nsequential": _nsequential,
    "nparallel": _nparallel,
    "machine": _machine,
    "alphabeta": _alphabeta,
    "sequential_ab": _sequential_ab,
    "parallel_ab": _parallel_ab,
    "nsequential_ab": _nsequential_ab,
    "nparallel_ab": _nparallel_ab,
    "scout": _scout,
    "sss": _sss,
    "minimax": _minimax,
}

#: Algorithms applicable per tree kind (used by the stream generator).
BOOLEAN_ALGORITHMS = (
    "sequential", "team", "parallel", "nsequential", "nparallel",
    "machine",
)
MINMAX_ALGORITHMS = (
    "alphabeta", "sequential_ab", "parallel_ab", "nsequential_ab",
    "nparallel_ab", "scout", "sss", "minimax",
)


def run_algorithm(
    algo: str, tree: GameTree, params: Mapping[str, Any]
) -> EngineOutcome:
    """Dispatch one evaluation.

    Raises :class:`~repro.errors.UnknownAlgorithmError` (a ``KeyError``)
    on unknown names.
    """
    try:
        fn = ALGORITHMS[algo]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown algorithm {algo!r} in field 'algo'; expected one "
            f"of {sorted(ALGORITHMS)}",
            field="algo",
        ) from None
    return fn(tree, params)


def evaluate_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side entry point: dict in, dict out (pickle-safe).

    ``payload`` carries ``algo``, ``params`` and the tree dict from
    :func:`repro.trees.io.tree_to_dict`.
    """
    tree = tree_from_dict(require_field(payload, "tree", "payload"))
    value, steps, work = run_algorithm(
        require_field(payload, "algo", "payload"),
        tree,
        payload.get("params", {}),
    )
    return {"value": value, "steps": steps, "work": work}
