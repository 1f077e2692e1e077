"""Every module a workload touches, imported once so ``setup_s`` pays
the import cost up front (including the engines ``repro.serve.engines``
would import lazily on first use)."""

import repro.core  # noqa: F401
import repro.core.alphabeta  # noqa: F401
import repro.core.nodeexpansion  # noqa: F401
import repro.core.shm  # noqa: F401
import repro.gateway  # noqa: F401
import repro.models.oracle_runner  # noqa: F401
import repro.serve  # noqa: F401
import repro.simulator  # noqa: F401
import repro.telemetry.export  # noqa: F401
import perfbench.harness  # noqa: F401
import perfbench.leaf_pool  # noqa: F401
import perfbench.serving  # noqa: F401
import perfbench.solve_grid  # noqa: F401
