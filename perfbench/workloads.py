"""The two benchmark workloads: seeded inputs, one pass, and its output checks.

The seed draws only the lambda inputs, from ranges fixed here rather than
read from the package, so the program under test sees only the generated
values.  Everything runs at the default QuadratureSpec.  A pass returns an
Outcome: its named checks, the worst error against the closed form, and a
fingerprint of every output, so two passes on the same inputs can be
compared exactly.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Ranges the seeded inputs are drawn from.  The p = 1 grid jitters the
# library's default six-point grid, the modular grid jitters the default
# basis-expansion grid linspace(0.11, 0.88, 8); each jitter is under a third
# of the grid spacing, so the points stay ordered and distinct.
P2_LAMBDA_RANGE = (0.2, 0.45)
P1_BASE_GRID = (0.13, 0.27, 0.41, 0.55, 0.69, 0.83)
P1_JITTER = 0.03
P1_TAUS = ("0.9i", "0.6i")
MODULAR_BASE_GRID = tuple(0.11 + 0.11 * k for k in range(8))
MODULAR_JITTER = 0.02
MODULAR_KAPPAS = (4, 5)
TOL = 1e-4


@dataclass
class Outcome:
    checks: list = field(default_factory=list)  # (name, passed)
    worst_error: float = 0.0
    fingerprint: tuple = ()
    report_bytes: int = 0

    def check(self, name: str, passed: bool) -> None:
        self.checks.append((name, bool(passed)))


def _jittered(base, jitter, rng):
    return tuple(round(x + rng.uniform(-jitter, jitter), 4) for x in base)


class P2Kappa8:
    """verify_identity(4, 2) at tau = 0.9i on one seeded lambda."""

    name = "p2-kappa8"

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        lo, hi = P2_LAMBDA_RANGE
        self.lam = round(lo + (hi - lo) * rng.random(), 4)

    @property
    def inputs(self) -> dict:
        return {"identity": 4, "p": 2, "tau": "0.9i", "lambda_grid": [self.lam]}

    def run_pass(self, es) -> Outcome:
        report = es.verify.verify_identity(
            4, 2, lambda_grid=(self.lam,), pt=es.specfun.ModularPoint(0.9j))
        out = Outcome(worst_error=report.rel_err,
                      fingerprint=(repr(report.as_dict()),))
        out.check("identity-4 passed", report.passed)
        out.check("identity-4 rel_err <= 1e-4", report.rel_err <= TOL)
        return out


class P1Verify:
    """`ellsel verify --identity all --p 1` at two tau on one seeded grid."""

    name = "p1-verify"

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        self.grid = _jittered(P1_BASE_GRID, P1_JITTER, rng)
        self.out_dir = out_dir
        self.first_bytes = {}

    @property
    def inputs(self) -> dict:
        return {"identity": "all", "p": 1, "tau": list(P1_TAUS),
                "lambda_grid": list(self.grid)}

    def run_pass(self, es) -> Outcome:
        out = Outcome()
        grid = ",".join(repr(x) for x in self.grid)
        worst = 0.0
        prints = []
        for tau in P1_TAUS:
            path = self.out_dir / f"p1-verify-{tau}.json"
            code = es.cli.main(["--output", str(path), "verify", "--identity",
                                "all", "--p", "1", "--tau", tau, "--grid", grid])
            data = path.read_bytes()
            payload = json.loads(data)
            out.check(f"tau={tau} exit 0", code == 0)
            out.check(f"tau={tau} ten reports passed",
                      len(payload["reports"]) == 10
                      and all(r["passed"] for r in payload["reports"]))
            first = self.first_bytes.setdefault(tau, data)
            out.check(f"tau={tau} report byte-identical to first pass",
                      data == first)
            worst = max([worst] + [r["rel_err"] for r in payload["reports"]])
            out.report_bytes += len(data)
            prints.append(data)
        out.worst_error = worst
        out.fingerprint = tuple(prints)
        return out


class ModularNumeric:
    """numeric_modular_matrices(1, kappa) at tau = i against the closed form."""

    name = "modular-numeric"

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        self.grid = _jittered(MODULAR_BASE_GRID, MODULAR_JITTER, rng)

    @property
    def inputs(self) -> dict:
        return {"p": 1, "kappa": list(MODULAR_KAPPAS), "tau": "1i",
                "lambda_grid": list(self.grid)}

    def run_pass(self, es) -> Outcome:
        out = Outcome()
        prints = []
        worst = 0.0
        for kappa in MODULAR_KAPPAS:
            t_num, s_num = es.transforms.numeric_modular_matrices(
                1, kappa, lambda_grid=self.grid)
            t_ref, s_ref = es.macdonald.modular_matrices(1, kappa)
            for label, num, ref in (("T", t_num, t_ref), ("S", s_num, s_ref)):
                diff = float(np.max(np.abs(num.entries - ref.entries)))
                out.check(f"kappa={kappa} {label} within 1e-4", diff <= TOL)
                worst = max(worst, diff)
                prints.append(num.entries.tobytes())
        out.worst_error = worst
        out.fingerprint = tuple(prints)
        return out


class P1Modular:
    """One p1-verify pass, then one modular-numeric pass, on the same seed.

    The two p = 1 paths share one workload so that each run holds several
    passes of both; their checks and fingerprints are concatenated and the
    worst error is the larger of the two.
    """

    name = "p1-modular"

    def __init__(self, seed: int, out_dir: Path):
        self.parts = (P1Verify(seed, out_dir), ModularNumeric(seed, out_dir))

    @property
    def inputs(self) -> dict:
        return {part.name: part.inputs for part in self.parts}

    def run_pass(self, es) -> Outcome:
        out = Outcome()
        for part in self.parts:
            sub = part.run_pass(es)
            out.checks += [(f"{part.name}: {label}", ok) for label, ok in sub.checks]
            out.worst_error = max(out.worst_error, sub.worst_error)
            out.fingerprint += sub.fingerprint
            out.report_bytes += sub.report_bytes
        return out


WORKLOADS = {w.name: w for w in (P2Kappa8, P1Modular)}


def accuracy_digits(worst_error: float) -> float:
    """-log10 of the worst error; an exact match reads as 17 digits and a
    pass that raised (infinite error) as 0."""
    if not math.isfinite(worst_error):
        return 0.0
    return -math.log10(max(worst_error, 1e-17))
