"""The experiment runner: the one path from a registry name to a result.

A sweep (an :class:`~repro.experiments.registry.ExperimentSpec` with
``sweep=True``) decomposes into independent points, each simulating its
own cluster.  This module shards those points across worker processes
with :mod:`multiprocessing` and hands the results to the module's
``assemble`` in point order, so ``jobs=1`` and ``jobs=N`` produce
byte-identical output.

Determinism contract:

* every point's seed is :func:`derive_seed`\\ ``(root_seed, point)`` — a
  SHA-256 of the root seed and the point key, independent of scheduling;
* workers receive only ``(experiment name, point, seed, kwargs)`` and
  resolve the spec from the registry in their own interpreter, so results
  depend only on those arguments;
* results are assembled in ``points`` order (``Pool.map`` preserves
  order), never in completion order.

No result outlives its run unless the caller keeps it: ``cells`` is an
explicit table of measured points that several runs may share (``repro
run all`` passes one per report, so Figs 11-13 measure each TestDFSIO
cell once).  Experiments that are not sweeps run their builder serially.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
from typing import Any, Dict, Optional

from repro.experiments import registry


def derive_seed(root_seed: int, point: Any) -> int:
    """Deterministic per-point seed from ``(root_seed, point)``.

    Stable across processes and Python invocations (no ``hash()``
    randomization), so parallel and serial runs agree byte-for-byte.
    """
    digest = hashlib.sha256(f"{root_seed}:{point!r}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _worker(task) -> Any:
    """Measure one sweep point (runs inside a worker process)."""
    name, point, seed, kwargs = task
    return registry.get(name).fanout.run_point(point, seed, **kwargs)


def run_experiment(name: str, profile: str = "default", jobs: int = 1,
                   seed: int = 0,
                   params: Optional[Dict[str, Any]] = None,
                   cells: Optional[Dict[Any, Any]] = None) -> Any:
    """Run one registered experiment; fan sweep points out over ``jobs``.

    ``params`` overrides the profile's parameter grid entirely when given.
    Experiments that are not sweeps ignore ``jobs``, ``seed`` and
    ``cells``.  ``cells`` is a table of measured points: a point is taken
    from it when the same ``run_point`` measured it with the same seed and
    parameters, and every point measured here is added to it.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    spec = registry.get(name)
    kwargs = dict(spec.params(profile)) if params is None else dict(params)
    sweep = spec.fanout
    if sweep is None:
        return spec.resolve()(**kwargs)
    if cells is None:
        cells = {}
    scope = (sweep.run_point, repr(sorted(kwargs.items())))
    keys = {point: (scope, point, derive_seed(seed, point))
            for point in sweep.points(**kwargs)}
    tasks = [(name, point, key[2], kwargs)
             for point, key in keys.items() if key not in cells]
    if jobs == 1 or len(tasks) <= 1:
        outputs = [_worker(task) for task in tasks]
    else:
        with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
            outputs = pool.map(_worker, tasks)
    for (_, point, _, _), output in zip(tasks, outputs):
        cells[keys[point]] = output
    return sweep.assemble({point: cells[key] for point, key in keys.items()},
                          **kwargs)


# ----------------------------------------------------------------- JSON export
def jsonable(obj: Any) -> Any:
    """Convert an experiment result into JSON-serializable data.

    Dataclasses become dicts, tuples become lists, non-string dict keys
    become their ``str()`` (e.g. a ``('colocated', 'read')`` panel key
    serializes as ``"('colocated', 'read')"``).  Combined with
    :func:`canonical_json` this gives a stable byte representation for
    determinism checks.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {field.name: jsonable(getattr(obj, field.name))
                for field in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {(key if isinstance(key, str) else str(key)): jsonable(value)
                for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(item) for item in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        return obj
    return repr(obj)


def canonical_json(result: Any) -> str:
    """Canonical JSON text of a result (sorted keys, fixed separators)."""
    return json.dumps(jsonable(result), sort_keys=True,
                      separators=(",", ":"))


def write_json(result: Any, path: str) -> None:
    """Write a result as indented JSON to ``path``."""
    with open(path, "w") as handle:
        json.dump(jsonable(result), handle, sort_keys=True, indent=2)
        handle.write("\n")
