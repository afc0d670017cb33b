"""In-memory spans around the package's entry points, for the traced run.

Each traced entry point is replaced, under every module attribute name that
holds it, by a wrapper that records one span per call.  Spans are folded as
they close into per-name totals (calls, points, duration, self time) and into
per-(parent, child) edges, so memory stays flat over the ~10^5 kernel calls
of one p = 2 pass; nothing is written until ``dump`` at the end of the run.
Self time is a span's duration minus the durations of the spans it directly
caused.
"""

from __future__ import annotations

import importlib
import json
import time

PACKAGE = "elliptic_selberg"
MODULES = ("specfun", "quadrature", "blocks", "selberg", "qseries",
           "macdonald", "transforms", "verify", "cli")

SCALAR_THETA = ("theta1", "theta_level", "dedekind_eta",
                "dedekind_eta_logderiv", "phi", "phi_logderiv")


def _points_arg(index):
    return lambda args, result: int(getattr(args[index], "size", 1))


def _budget(args, result):
    return int(result.budget_used)


def _terms(args, result):
    return int(result.terms_compared)


# (span name, (module, attribute) locating the original, points counter or
# None, modules whose attribute is replaced or None for every module).
# blocks reaches graded_nodes, endpoint_loop_fp, roots_jacobi and
# continue_log by names it imported itself; verify and transforms reach
# u_block the same way, and only the transforms name is traced.
ENTRY_POINTS = (
    [("specfun.theta1_array", ("specfun", "_theta1_array"), _points_arg(0), None),
     ("specfun.theta_level_array", ("specfun", "_theta_level_array"),
      _points_arg(2), None)]
    + [("specfun.scalar", ("specfun", name), None, None) for name in SCALAR_THETA]
    + [("specfun.continue_log", ("specfun", "continue_log"), _points_arg(0), None)]
    + [("quadrature.node_build", ("quadrature", name), None, None)
       for name in ("graded_nodes", "panel_nodes", "endpoint_loop_nodes")]
    + [("quadrature.roots_jacobi", ("blocks", "roots_jacobi"), None, None),
       ("quadrature.endpoint_loop_fp", ("quadrature", "endpoint_loop_fp"), None, None),
       ("blocks.j_integral", ("blocks", "j_integral"), _budget, None),
       ("selberg.block_constant", ("selberg", "block_constant"), None, None),
       ("qseries.check_series_identity", ("qseries", "check_series_identity"),
        _terms, None),
       ("macdonald.modular_matrices", ("macdonald", "modular_matrices"), None, None),
       ("transforms.expand_in_block_basis",
        ("transforms", "expand_in_block_basis"), None, None),
       ("transforms.u_block", ("blocks", "u_block"), None, ("transforms",)),
       ("verify.verify_identity", ("verify", "verify_identity"), None, None),
       ("cli.main", ("cli", "main"), None, None)]
)


class Tracer:
    """Span totals for the entry points in ENTRY_POINTS.

    A span's ``points`` adds up a per-call count: array size for the
    kernels, ``budget_used`` for j_integral, ``terms_compared`` for the series
    proofs.  ``results`` keeps the arguments and results of the two entry
    points whose metrics need them (j_integral, transforms.u_block).
    """

    def __init__(self):
        self._stack = []
        self._patched = []
        self.reset()

    def reset(self):
        self.spans = {}
        self.edges = {}
        self.results = {"blocks.j_integral": [], "transforms.u_block": []}

    def _wrap(self, name, fn, points):
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        keep = name in self.results

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                tot = tracer.spans.get(name)
                if tot is None:
                    tot = tracer.spans[name] = [0, 0, 0.0, 0.0]
                tot[0] += 1
                tot[2] += dur
                tot[3] += dur - frame[1]
                if points is not None and result is not None:
                    tot[1] += points(args, result)
                edge = tracer.edges.get((parent, name))
                if edge is None:
                    edge = tracer.edges[(parent, name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dur
                if keep and result is not None:
                    tracer.results[name].append((args, result))

        return wrapper

    def install(self):
        """Replace every traced entry point under each name that holds it."""
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        for name, (home, attr), points, scope in ENTRY_POINTS:
            original = getattr(mods[home], attr)
            wrapper = self._wrap(name, original, points)
            for mod_name in scope or MODULES:
                mod = mods[mod_name]
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def snapshot(self) -> dict:
        """Totals so far, as plain data; the caller then resets for the next pass.

        ``quad_agreement_max`` is the largest coarse-vs-refined disagreement
        of one j_integral relative to its value; ``u_block_distinct`` counts
        the distinct (index, lambda, tau) among the transforms.u_block calls.
        """
        ratios = [r.error_estimate / max(abs(r.value), 1e-300)
                  for _, r in self.results["blocks.j_integral"]]
        return {
            "spans": {k: {"calls": v[0], "points": v[1], "total_s": v[2],
                          "self_s": v[3]} for k, v in sorted(self.spans.items())},
            "edges": [{"parent": p, "child": c, "calls": v[0], "total_s": v[1]}
                      for (p, c), v in sorted(self.edges.items(),
                                              key=lambda kv: (str(kv[0][0]), kv[0][1]))],
            "quad_agreement_max": max(ratios, default=0.0),
            "u_block_distinct": len({args[:3] for args, _ in
                                     self.results["transforms.u_block"]}),
        }


def counts(snap: dict) -> dict:
    """A snapshot without its timings: what must repeat exactly between passes."""
    return {
        "spans": {k: (v["calls"], v["points"]) for k, v in snap["spans"].items()},
        "edges": [(e["parent"], e["child"], e["calls"]) for e in snap["edges"]],
        "quad_agreement_max": snap["quad_agreement_max"],
        "u_block_distinct": snap["u_block_distinct"],
    }


def dump(path, sections: dict) -> None:
    """Write the span totals of each traced section as one JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sections, fh, indent=1, sort_keys=True)
