"""Seeded workload generators for the cylzeta benchmark.

A workload is an endless sequence of *passes*; pass ``k`` of workload
``name`` under seed ``s`` is a list of :class:`Op` built only from
``random.Random(f"{name}:{s}:{k}")``, so the same seed gives the same
inputs.  The program under test receives only the model and cap JSON
files written here and the argv of each op.

Every configuration is valid by construction (a configuration error
would be counted against the program): ``adiabatic-scan`` and
``blocks-threshold`` get kernel-free models, grids have at least two
points, caps keep ``mu >= 0`` on every mode and decay fast enough for
the model's growth, and ``asym-const`` rays stay clear of the branch
cut.  Known defects of the program are kept in the load on purpose:

* ``small-r`` has one ``cylinder-det`` per pass at ``r*d < 1.9e-4``,
  which exhausts the 2,000,000-mode cap of the convergent sum
  (``ConvergenceError``, exit 2);
* ``small-r`` has ``adiabatic-scan`` grids starting at 0.05-0.1 whose
  slope check fails (exit 3), and a ``gluing-check`` on a small-``d``
  cubic model at ``r`` about 0.1 (exit 3).

The cost of an op depends strongly on a few inputs (``1/(d r)`` for the
small-``r`` sums, ``m``, ``t_max`` and ``d`` for the rays), so these are
not drawn freely over their whole range: ``small-r`` puts ``r`` on fixed
geometric ladders (4 down to 4e-3, plus the 1e-4 band of the known
defect), each rung moved log-uniformly by up to 5 %, with ``d`` within
5 % of 1; ``many-models`` uses a fixed mix of model kinds; ``rays`` runs
every ``m`` and spreads ``t_max``, ``d`` and the line count over strata.
Every seed then has the same cost profile, which keeps the end-to-end
figures comparable across seeds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("small-r", "many-models", "rays")

BOUNDARY_PAIRS = ("D,D", "D,P<", "P>=,D", "P>,D", "D,RobinAbsB")


@dataclass
class Op:
    """One CLI command: its argv plus the inputs the reference needs."""

    command: str
    argv: list
    model: dict
    caps: tuple = (None, None)
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# model and cap generators
# ---------------------------------------------------------------------------

def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One log-uniform draw in each of ``count`` equal log-strata of [lo, hi]."""
    width = (math.log(hi) - math.log(lo)) / count
    return [math.exp(math.log(lo) + width * (i + rng.random())) for i in range(count)]


def _ladder(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """``count`` geometric rungs from lo to hi, each moved log-uniformly by
    up to 5 % either way."""
    step = (math.log(hi) - math.log(lo)) / (count - 1)
    return [math.exp(math.log(lo) + step * i + rng.uniform(-0.05, 0.05)) for i in range(count)]


def arithmetic_model(rng: random.Random, *, d_range=(0.5, 2.0), degree=None,
                     kernel=True) -> dict:
    """Magnitudes d(n+a) with a multiplicity polynomial of degree 0-3."""
    if degree is None:
        degree = rng.randint(0, 3)
    mult = [rng.randint(0, 2) for _ in range(degree)] + [rng.randint(1, 2)]
    if degree > 0 and mult[0] == 0 and rng.random() < 0.5:
        mult[0] = 1
    return {
        "kind": "arithmetic",
        "a": round(rng.uniform(0.05, 1.0), 6),
        "d": round(rng.uniform(*d_range), 6),
        "mult": mult,
        "kernel": rng.randint(0, 2) if kernel else 0,
    }


def explicit_model(rng: random.Random, *, lines=(1, 40), kernel=True) -> dict:
    """A number of distinct magnitudes in ``lines``, drawn from [0.3, 12],
    with small multiplicities.

    Kernel-free models (the adiabatic and block scans) start below 1, so
    that the Robin-map gap e^(-2 lam_min r) stays resolvable in double
    precision over the scanned r and the decay fit has points to fit.
    """
    count = rng.randint(*lines)
    lams = sorted({round(rng.uniform(0.3, 12.0), 6) for _ in range(count)})
    if not kernel and lams[0] > 1.0:
        lams[0] = round(rng.uniform(0.3, 1.0), 6)
    return {
        "kind": "explicit",
        "lines": [[lam, rng.randint(1, 3)] for lam in lams],
        "kernel": rng.randint(0, 2) if kernel else 0,
    }


def model_mix(rng: random.Random, *, kernel=True) -> list[dict]:
    """Eight models, one of each kind: arithmetic with multiplicity degree
    0, 1, 2 and 3, and explicit with 1-10, 11-20, 21-30 and 31-40 lines.
    A fixed mix keeps the cost of a pass alike under every seed."""
    models = [arithmetic_model(rng, degree=deg, kernel=kernel) for deg in range(4)]
    models += [explicit_model(rng, lines=(lo, lo + 9), kernel=kernel) for lo in (1, 11, 21, 31)]
    rng.shuffle(models)
    return models


def lambda_min(model: dict) -> float:
    if model["kind"] == "explicit":
        return model["lines"][0][0]
    n0 = 0 if model["mult"][0] > 0 else 1
    return model["d"] * (n0 + model["a"])


def growth(model: dict) -> int:
    """Smallest sigma with a convergent sum of m lam^-sigma (0 when finite)."""
    if model["kind"] == "explicit":
        return 0
    return len(model["mult"])  # degree + 1; the leading coefficient is never 0


def perturbed_cap(rng: random.Random, model: dict) -> dict:
    """A cap lam + c (1 + lam^2)^(-beta) valid for ``model``.

    beta exceeds (growth - 1)/2 so the perturbation is summable, and a
    negative c stays below lam_min (1 + lam_min^2)^beta / 2, which keeps
    mu >= 0 on every mode (lam (1 + lam^2)^beta increases in lam).
    """
    beta = round(max(1.0, 0.5 * growth(model)) + rng.uniform(0.25, 1.0), 6)
    lam0 = lambda_min(model)
    c_floor = -0.5 * lam0 * (1.0 + lam0 * lam0) ** beta
    c = round(rng.uniform(max(c_floor, -2.0), 1.5), 6)
    return {"mu": "absB_plus", "pert": {"c": c, "beta": beta}, "kernel_value": 0.0}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class _PassWriter:
    """Writes the model and cap files of one pass and builds its ops."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0
        self.ops: list[Op] = []

    def _file(self, prefix: str, data: dict) -> str:
        path = self.dir / f"{prefix}{self.count}.json"
        self.count += 1
        path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
        return str(path)

    def add(self, command: str, model: dict, *extra, caps=(None, None), **params) -> None:
        argv = [command, "--model", self._file("model", model)]
        for flag, cap in zip(("--cap1", "--cap2"), caps):
            if cap is not None:
                argv += [flag, self._file("cap", cap)]
        argv += [str(x) for x in extra]
        self.ops.append(Op(command=command, argv=argv, model=model, caps=caps, params=params))


def _grid(lo: float, hi: float, steps: int) -> list:
    return ["--r-min", repr(lo), "--r-max", repr(hi), "--steps", steps]


def _small_r_pass(rng: random.Random, w: _PassWriter) -> None:
    d_small_r = (0.95, 1.05)

    def model(**kw):
        return arithmetic_model(rng, d_range=d_small_r, degree=rng.randint(0, 1), **kw)

    # all five boundary pairs on a ladder of eight r from 4e-3 to 4, with the
    # lowest rung twice: these ten ops make up the 90th percentile of the
    # pass, which then falls inside a group of like ops instead of at its edge
    for bc in BOUNDARY_PAIRS:
        for r in _ladder(rng, 4e-3, 4.0, 8) + _ladder(rng, 4e-3, 4.0, 8)[:1]:
            w.add("cylinder-det", model(), "--r", repr(r), "--bc", bc, bc=bc)
    # known defect: r*d < 1.9e-4 exhausts the 2,000,000-mode cap (exit 2)
    m = arithmetic_model(rng, d_range=(0.9, 1.25), degree=0)
    r = _log_uniform(rng, 1.0e-4, 1.4e-4)
    w.add("cylinder-det", m, "--r", repr(r), "--bc", "D,D", bc="D,D")
    # cubic multiplicity only at moderate r
    for r in _ladder(rng, 0.5, 4.0, 4):
        m = arithmetic_model(rng, d_range=(0.5, 2.0), degree=3)
        bc = rng.choice(BOUNDARY_PAIRS)
        w.add("cylinder-det", m, "--r", repr(r), "--bc", bc, bc=bc)
    # gluing identity over single small r and short grids
    for r in _ladder(rng, 0.03, 4.0, 6):
        w.add("gluing-check", model(), "--r", repr(r))
    for r in _ladder(rng, 0.05, 1.0, 2):
        w.add("gluing-check", model(), *_grid(r, 4.0 * r, 3))
    # known defect: small-d cubic model at r ~ 0.1 fails the tolerance (exit 3)
    m = arithmetic_model(rng, d_range=(0.095, 0.105), degree=3, kernel=False)
    w.add("gluing-check", m, "--r", repr(_log_uniform(rng, 0.1, 0.11)))
    # adiabatic scans: one grid from 0.05-0.1 (known slope-check failure), one
    # from small r, one that settles
    for lo, hi, steps in ((_log_uniform(rng, 0.05, 0.1), 4.0, 6),
                          (_log_uniform(rng, 0.012, 0.016), 2.0, 4),
                          (_log_uniform(rng, 1.0, 2.0), 12.0, 6)):
        m = model(kernel=False)
        caps = (perturbed_cap(rng, m), perturbed_cap(rng, m))
        w.add("adiabatic-scan", m, *_grid(lo, hi, steps), caps=caps)
    # block positivity scans starting at small r
    for lo in _ladder(rng, 1e-3, 1e-2, 8):
        m = model(kernel=False)
        caps = (perturbed_cap(rng, m), perturbed_cap(rng, m))
        steps = rng.randint(10, 30)
        hi = rng.uniform(2.0, 10.0)
        w.add("blocks-threshold", m, *_grid(lo, hi, steps), caps=caps)


def _many_models_pass(rng: random.Random, w: _PassWriter, cache_root: Path) -> None:
    for m in model_mix(rng):
        w.add("zeta", m)
    for m, bc in zip(model_mix(rng), BOUNDARY_PAIRS * 2):
        w.add("cylinder-det", m, "--r", repr(rng.uniform(1.0, 6.0)), "--bc", bc, bc=bc)
    # cold then warm root cache: the second run reads what the first wrote
    for i, m in enumerate(model_mix(rng)):
        cache = cache_root / f"{w.dir.name}-{i}"
        grid = _grid(rng.uniform(1.0, 2.0), rng.uniform(3.0, 5.0), 4)
        w.add("gluing-check", m, *grid, "--cache", cache)
        w.ops.append(Op("gluing-check", list(w.ops[-1].argv), m))
    for m in model_mix(rng, kernel=False):
        grid = _grid(rng.uniform(1.0, 2.0), rng.uniform(8.0, 14.0), 6)
        caps = (perturbed_cap(rng, m), perturbed_cap(rng, m))
        w.add("adiabatic-scan", m, *grid, caps=caps)
    for m in model_mix(rng, kernel=False):
        grid = _grid(rng.uniform(1.0, 2.0), rng.uniform(6.0, 10.0), rng.randint(10, 40))
        caps = (perturbed_cap(rng, m), perturbed_cap(rng, m))
        w.add("blocks-threshold", m, *grid, caps=caps)


def _rays_pass(rng: random.Random, w: _PassWriter) -> None:
    # single rays (twice) and full angle sets for every m on constant-multiplicity
    # arithmetic models, a few of each on explicit models.  The cheap explicit
    # ops, the arithmetic single rays and the arithmetic angle sets take about a
    # quarter, a half and a quarter of the ops, so that the median and the 90th
    # percentile fall inside a group of like ops.  The inputs that set the
    # cost (t_max, the gap d, the number of lines) are spread over strata.
    plan = ([("arithmetic", m, False) for m in range(2, 9)] * 2
            + [("arithmetic", m, True) for m in range(2, 9)]
            + [("explicit", m, False) for m in (3, 5, 7, 8)]
            + [("explicit", m, True) for m in (2, 5, 8)])
    t_maxes = _strata(rng, 1e4, 1e6, len(plan))
    gaps = _strata(rng, 0.5, 2.0, 21)
    sizes = _strata(rng, 1.0, 40.0, 7)
    for values in (t_maxes, gaps, sizes):
        rng.shuffle(values)
    for (kind, m_rays, full), t_max in zip(plan, t_maxes):
        if kind == "arithmetic":
            model = arithmetic_model(rng, degree=0)
            model["d"] = round(gaps.pop(), 6)
        else:
            size = round(sizes.pop())
            model = explicit_model(rng, lines=(size, size))
        argv = ["--m", m_rays, "--r", repr(rng.uniform(0.5, 3.0)),
                "--t-min", repr(t_max / _log_uniform(rng, 120.0, min(1e3, t_max / 50.0))),
                "--t-max", repr(t_max), "--t-steps", 12]
        ray = None if full else rng.randrange(m_rays)
        if ray is not None:
            argv += ["--ray", ray]
        w.add("asym-const", model, *argv, m=m_rays)


def make_pass(workload: str, seed: int, index: int, directory: Path) -> list[Op]:
    """Write the input files of pass ``index`` under ``directory`` and return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}:{index}")
    w = _PassWriter(directory / f"p{index}")
    if workload == "small-r":
        _small_r_pass(rng, w)
    elif workload == "many-models":
        _many_models_pass(rng, w, directory / "root-cache")
    else:
        _rays_pass(rng, w)
    return w.ops
