"""Wire protocol of the solver service.

A solve request is one JSON document; :func:`normalize_request` turns
it into a validated, fully-defaulted internal form.  Requests carrying
the same grid, operator, solver, preconditioner and tolerance fall
into the same *bucket* (:func:`bucket_key`) and may be coalesced into
one multi-RHS solve; byte-identical requests additionally share one
*content key* (:func:`request_content_key`) and are single-flighted.

Request fields
--------------
``config``          grid configuration name (required; e.g. ``"test"``)
``scale``           grid scale factor (default 1.0)
``seed``            grid seed (default ``None``)
``solver``          solver name, or ``None`` to use the tuned choice
``precond``         preconditioner kind (one of
                    :data:`~repro.precond.PRECOND_KINDS`), or ``None``
                    likewise
``tol``             relative tolerance (default 1e-12)
``check_freq``      convergence-check cadence (default 10)
``max_iterations``  iteration budget (default 2000)
``rhs``             base64 array document (see
                    :func:`repro.reporting.serialize.encode_array`)
                    or ``None`` for the deterministic reference RHS
``engine``          execution context: ``None`` (server default),
                    ``"serial"`` or ``"batched"`` --
                    the batched engine amortizes per-iteration fixed
                    costs across coalesced multi-RHS columns
``blocks``          ``[by, bx]`` decomposition for a decomposed
                    engine (default: the server's ``--blocks``)
``inject``          fault-injection directive (tests only):
                    ``{"crash": N}`` crashes the first N attempts,
                    ``{"sleep": s}`` delays the worker.
``resilience``      in-solve fault-tolerance policy: ``true`` for the
                    defaults or an object with any of
                    ``replicate_every``/``abft``/``abft_every``/
                    ``rowsum_tol``/``crosscheck_tol``/``max_rollbacks``
                    (see
                    :class:`~repro.parallel.resilience.ResiliencePolicy`);
                    requires a virtual-machine engine.
"""

import numpy as np

from repro.core.cache import CACHE_FORMAT_VERSION, digest_of
from repro.core.errors import ConfigurationError
from repro.precond import PRECOND_KINDS
from repro.reporting.serialize import decode_array, encode_array
from repro.solvers import SOLVER_REGISTRY
from repro.solvers.result import SolveResult

#: Solver names a request may carry: the registry's canonical names
#: (aliases such as ``csi`` are refused, so each solver has one memo
#: and bucket key).
KNOWN_SOLVERS = tuple(dict.fromkeys(
    cls.name for cls in SOLVER_REGISTRY.values()))

#: Applied when a request omits solver/precond and no tuned choice is
#: persisted for the grid.
DEFAULT_SOLVER = "pcsi"
DEFAULT_PRECOND = "diagonal"

#: Execution engines a request may select (``None`` = server default).
KNOWN_ENGINES = ("serial", "batched")


class ProtocolError(ConfigurationError):
    """A malformed or unserviceable request document."""


def normalize_request(doc):
    """Validate a request document into the internal form.

    Returns a dict with every field present and typed; ``rhs`` is a
    decoded ``(ny, nx)`` float64 array or ``None``.  Raises
    :class:`ProtocolError` on anything malformed.
    """
    if not isinstance(doc, dict):
        raise ProtocolError("request body must be a JSON object")
    config = doc.get("config")
    if not config or not isinstance(config, str):
        raise ProtocolError("request must name a grid 'config'")
    solver = doc.get("solver")
    if solver is not None:
        solver = str(solver).lower()
        if solver not in KNOWN_SOLVERS:
            raise ProtocolError(
                f"unknown solver {solver!r}; expected one of "
                f"{KNOWN_SOLVERS}")
    precond = doc.get("precond")
    if precond is not None:
        precond = str(precond).lower()
        if precond not in PRECOND_KINDS:
            raise ProtocolError(
                f"unknown preconditioner {precond!r}; expected one of "
                f"{PRECOND_KINDS}")
    rhs = doc.get("rhs")
    if rhs is not None:
        try:
            rhs = np.asarray(decode_array(rhs), dtype=np.float64)
        except (KeyError, TypeError, ValueError) as err:
            raise ProtocolError(f"malformed rhs document: {err!r}") \
                from None
        if rhs.ndim != 2:
            raise ProtocolError(
                f"rhs must be a 2-d field, got shape {rhs.shape}")
    inject = doc.get("inject")
    if inject is not None and not isinstance(inject, dict):
        raise ProtocolError("inject must be an object")
    resilience = doc.get("resilience")
    if resilience is not None and resilience is not False:
        from repro.core.errors import SolverError
        from repro.parallel.resilience import ResiliencePolicy

        try:
            # Normalized to the full canonical policy dict so that
            # equivalent spellings (``true`` vs ``{}``) coalesce.
            resilience = ResiliencePolicy.from_any(resilience).to_dict()
        except SolverError as err:
            raise ProtocolError(
                f"malformed resilience policy: {err}") from None
    else:
        resilience = None
    engine = doc.get("engine")
    if engine is not None:
        engine = str(engine).lower()
        if engine not in KNOWN_ENGINES:
            raise ProtocolError(
                f"unknown engine {engine!r}; expected one of "
                f"{KNOWN_ENGINES}")
    blocks = doc.get("blocks")
    if blocks is not None:
        try:
            blocks = (int(blocks[0]), int(blocks[1]))
        except (TypeError, ValueError, IndexError):
            raise ProtocolError(
                "blocks must be a [by, bx] pair of integers") from None
        if len(blocks) != 2 or blocks[0] < 1 or blocks[1] < 1:
            raise ProtocolError("blocks must be two integers >= 1")
    try:
        seed = doc.get("seed")
        req = {
            "config": config,
            "scale": float(doc.get("scale", 1.0)),
            "seed": None if seed is None else int(seed),
            "solver": solver,
            "precond": precond,
            "tol": float(doc.get("tol", 1.0e-12)),
            "check_freq": int(doc.get("check_freq", 10)),
            "max_iterations": int(doc.get("max_iterations", 2000)),
            "rhs": rhs,
            "engine": engine,
            "blocks": blocks,
            "inject": inject,
            "resilience": resilience,
        }
    except (TypeError, ValueError) as err:
        raise ProtocolError(f"malformed request field: {err}") from None
    if req["tol"] <= 0 or req["check_freq"] < 1 \
            or req["max_iterations"] < 1:
        raise ProtocolError(
            "tol must be > 0, check_freq and max_iterations >= 1")
    return req


def bucket_key(req):
    """Coalescing bucket of a normalized request.

    Requests in the same bucket share grid, operator, solver,
    preconditioner, tolerance and execution-engine settings, so their
    right-hand sides can ride one multi-RHS solve.
    ``solver``/``precond``/``engine``/``blocks`` must already be
    resolved (tuned choice and server defaults applied) by the caller.
    """
    resilience = req.get("resilience")
    return (req["config"], req["scale"], req["seed"], req["solver"],
            req["precond"], req["tol"], req["check_freq"],
            req["max_iterations"], req["engine"], req["blocks"],
            None if resilience is None
            else tuple(sorted(resilience.items())))


def request_content_key(req):
    """Content digest of a normalized request (single-flight identity).

    Two requests share a content key iff every solve-relevant field --
    including the RHS bytes -- is identical, in which case their
    responses are interchangeable.  Requests carrying an injection
    directive never dedupe (the directive changes worker behavior).
    """
    from repro.experiments.common import rhs_digest

    parts = [CACHE_FORMAT_VERSION, "service-request", bucket_key(req)]
    parts.append(None if req["rhs"] is None else rhs_digest(req["rhs"]))
    if req["inject"]:
        parts.append(repr(sorted(req["inject"].items())))
    return digest_of(*parts)


def split_result(batch, column):
    """Column ``column`` of a multi-RHS :class:`SolveResult` as a
    standalone single-RHS result.

    The solution slice, iteration count, convergence flag and both
    norms are the per-column truth recorded by the batched loop --
    bit-identical to a standalone solve of that column (the PR-6
    guarantee).  The event ledgers and residual history describe the
    *batch* loop, not any one column, so they are left empty here;
    ``extra`` records the batch provenance instead.
    """
    from repro.solvers.health import SolverDiagnosis

    extra = batch.extra
    nrhs = int(extra.get("multi_rhs", 1))
    diagnosis = None
    diag_doc = extra.get("per_rhs_diagnosis", {}).get(str(column))
    if diag_doc is not None:
        diagnosis = SolverDiagnosis.from_dict(diag_doc)
    x = np.asarray(batch.x)
    if x.ndim == 3:
        x = np.ascontiguousarray(x[:, :, column])
    return SolveResult(
        x=x,
        iterations=int(extra["per_rhs_iterations"][column]),
        converged=bool(extra["per_rhs_converged"][column]),
        residual_norm=float(extra["per_rhs_residual_norm"][column]),
        b_norm=float(extra["per_rhs_b_norm"][column]),
        residual_history=[],
        solver=batch.solver,
        preconditioner=batch.preconditioner,
        events={},
        setup_events={},
        extra={"from_batch": nrhs, "batch_column": int(column)},
        diagnosis=diagnosis,
    )


__all__ = [
    "DEFAULT_PRECOND",
    "DEFAULT_SOLVER",
    "KNOWN_ENGINES",
    "KNOWN_SOLVERS",
    "ProtocolError",
    "bucket_key",
    "decode_array",
    "encode_array",
    "normalize_request",
    "request_content_key",
    "split_result",
]
