"""Spans around minksub's public functions, recorded from outside the package.

``install`` replaces each function listed in ``WRAPPED`` by a wrapper that
records one span per call: name, start, end, parent span and job id.  The
wrapper goes wherever the function is reachable: the module that defines
it, every minksub module that imported it by name (for example
``minksub.invariants.ricci_expanded``), and the class for methods.  Nothing
under ``src/`` changes.

Spans are kept in flat typed arrays and written out when the run ends.  A
span's self time is its duration minus the durations of its direct
children; spans of one job nest under a root span ``bench.job``, so the
self times of one job's spans add up to the job's traced time and the root
span's self time is the benchmark's own share.

A recursive call of a wrapped function (``norm_expr.evaluate`` walking its
tree) does not open a second span: one span is one call from outside.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

ROOT = "bench.job"


def _oracle_name(args, kwargs):
    scheme = args[3] if len(args) > 3 else kwargs.get("scheme", "jet")
    return "curvature.oracle_fd" if scheme == "finite_difference" \
        else "curvature.oracle_jet"


def _norm_jet_name(args, kwargs):
    return "minkowski.jet." + args[0].kind


# (module, attribute path, span name or namer(args, kwargs), result hook)
# The result hook names a counter bumped when it returns true.
WRAPPED = (
    ("minksub.jets", "Jet4.__mul__", "jets.mul", None),
    ("minksub.jets", "Jet4.__rmul__", "jets.mul", None),
    ("minksub.jets", "Jet4.reciprocal", "jets.series", None),
    ("minksub.jets", "Jet4.sqrt", "jets.series", None),
    ("minksub.jets", "Jet4.partial_tensors", "jets.partial_tensors", None),
    ("minksub.norm_expr", "evaluate", "norm_expr.evaluate", None),
    ("minksub.norm_expr", "parse_norm", "norm_expr.parse_norm", None),
    ("minksub.minkowski", "NormModel.jet", _norm_jet_name, None),
    ("minksub.minkowski", "validate_norm", "minkowski.validate_norm", None),
    ("minksub.germ", "transform_germ", "germ.transform_germ", None),
    ("minksub.germ", "adapt_germ", "germ.adapt_germ", None),
    ("minksub.curvature", "ricci_expanded", "curvature.ricci_expanded", None),
    ("minksub.curvature", "ricci_oracle", _oracle_name, None),
    ("minksub.curvature", "spray_field", "curvature.spray_field", None),
    ("minksub.curvature", "zeta_check", "curvature.zeta_check", None),
    ("minksub.curvature", "reports_to_csv", "curvature.reports_to_csv", None),
    ("minksub.invariants", "sphere_grid", "invariants.sphere_grid", None),
    ("minksub.invariants", "audit_hypersurface", "invariants.audit", None),
    ("minksub.invariants", "audit_codim2", "invariants.audit", None),
    ("minksub.invariants", "audit_ruled", "invariants.audit", None),
    ("minksub.invariants", "point_type", "invariants.point_type", None),
    ("minksub.invariants", "point_invariants", "invariants.point_invariants",
     None),
    ("minksub.pencil", "spectral_split", "pencil.spectral_split", None),
    ("minksub.pencil", "type_exact", "pencil.type_exact", None),
    ("minksub.pencil", "type_sampled", "pencil.type_sampled", None),
    ("minksub.pencil", "genericity_check", "pencil.genericity_check", None),
    ("minksub.pencil", "canonical_from_spectral", "pencil.canonical", None),
    ("minksub.pencil", "classify_topology", "pencil.canonical", None),
    ("minksub.pencil", "common_zero_search", "pencil.common_zero_search",
     lambda point: ("pencil.common_zero_search.found", point is not None)),
    ("minksub.example", "verify_example", "example.verify_example", None),
    ("minksub.example", "find_example_params", "example.find_example_params",
     None),
    ("minksub.cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span store; only records while ``active`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.stack: list[int] = []
        self.job_id = -1
        self.active = False
        self._restore: list[tuple] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def run_job(self, job_id: int, call):
        """Run ``call`` under a root span; return (result or exception, s)."""
        self.job_id = job_id
        self.active = True
        idx = self.open(self.intern(ROOT))
        try:
            result = call()
        except Exception as exc:  # reported by the caller as a failed check
            result = exc
        finally:
            self.close(idx)
            self.active = False
        return result, self.end[idx] - self.start[idx]

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, fn, name, hook):
        fixed = None if callable(name) else self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            nid = fixed if fixed is not None else tracer.intern(
                name(args, kwargs))
            stack = tracer.stack
            if stack and tracer.name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                key = tracer.names[nid]
                tracer.errors[key] = tracer.errors.get(key, 0) + 1
                raise
            finally:
                tracer.close(idx)
            if hook is not None:
                key, hit = hook(result)
                if hit:
                    tracer.counters[key] = tracer.counters.get(key, 0) + 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry of WRAPPED at its definition and import sites."""
        done = {}
        for modname, path, name, hook in WRAPPED:
            module = importlib.import_module(modname)
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapper = done.get(id(original))
            if wrapper is None:
                wrapper = done[id(original)] = (
                    self._wrapper(original, name, hook), original)
            self._set(owner, attr, wrapper[0])
            if not isinstance(owner, type):
                for other in list(sys.modules.values()):
                    if (other is not None and other is not owner
                            and getattr(other, "__name__", "").startswith(
                                "minksub")
                            and getattr(other, attr, None) is original):
                        self._set(other, attr, wrapper[0])

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict:
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "job": np.array(self.job, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent],
                            weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        own = np.bincount(a["name_id"], weights=self_s, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i]),
                       "errors": self.errors.get(name, 0)}
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span to ``path`` (a compressed .npz file)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
