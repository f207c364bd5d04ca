"""``repro.serve`` — content-addressed sweep orchestration.

The paper's evaluation is a matrix of (program, protocol, optimization
flags, scale) cells; production use multiplies that matrix by fault
profiles, seeds and topologies.  This package treats every cell as a
*request* with a deterministic content-addressed key and serves it the
cheapest way available:

1. from the on-disk result cache (a finished :class:`RunResult` for the
   same key — byte-identical to recomputing, because runs are
   deterministic),
2. by joining an identical request already in flight (dedup),
3. by computing it — in-process, or fanned across a process pool — with
   the compiler analysis (:class:`repro.runtime.shmem.ShmemPlan`)
   memoized in memory and on disk so wire-config ablations rebuild it
   once instead of per cell.

Public surface:

``RunRequest``       one cell: program spec + config + run options
``ServeSession``     submit/run_batch/gather front end with caching + pool
``ResultStore``      the crash-safe content-addressed on-disk store
``request_key``      the cache-key function (see docs/serve.md)
``results_equal``    exact RunResult equality (ndarray-aware)

See ``docs/serve.md`` for the cache-key contract and invalidation rules.
"""

import importlib

#: public name -> the submodule that defines it.  Loaded on first use, so
#: importing the option table (``repro.serve.matrix``, which the run CLI
#: needs at start-up) does not also load the process pool, the store and
#: the key machinery.
_EXPORTS = {
    "assert_results_equal": "compare",
    "results_equal": "compare",
    "CODE_VERSION": "keys",
    "canonical": "keys",
    "fingerprint": "keys",
    "plan_key": "keys",
    "program_fingerprint": "keys",
    "request_key": "keys",
    "RunRequest": "request",
    "ServeResult": "runner",
    "ServeSession": "runner",
    "execute_request": "runner",
    "ResultStore": "store",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
