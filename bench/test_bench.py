"""Checks of the benchmark's own parts: the generator, the tracer and the reference.

Run with ``python -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import reference
import run
import workloads
from tracer import Tracer

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

from cylzeta import cli  # noqa: E402


def _ops(workload: str, seed: int, directory: Path, commands=None, limit=None):
    ops = workloads.make_pass(workload, seed, 0, directory / workload)
    if commands is not None:
        ops = [op for op in ops if op.command in commands]
    return ops[:limit]


def _strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    first = workloads.make_pass(workload, 7, 3, tmp_path / "a")
    second = workloads.make_pass(workload, 7, 3, tmp_path / "b")
    assert [op.argv[0] for op in first] == [op.argv[0] for op in second]
    for a, b in zip(first, second):
        assert (a.model, a.caps, a.params) == (b.model, b.caps, b.params)
        assert [x.replace(str(tmp_path / "a"), "") for x in a.argv] == \
               [x.replace(str(tmp_path / "b"), "") for x in b.argv]
    other = workloads.make_pass(workload, 8, 3, tmp_path / "c")
    assert [op.model for op in other] != [op.model for op in first]


def test_generated_configurations_are_valid(tmp_path):
    for workload in workloads.WORKLOADS:
        for op in workloads.make_pass(workload, 5, 0, tmp_path / workload):
            if op.command in ("adiabatic-scan", "blocks-threshold"):
                assert op.model["kernel"] == 0
            lam0 = workloads.lambda_min(op.model)
            for cap in op.caps:
                if cap is not None:
                    pert = cap["pert"]
                    # mu(lam) = lam + c (1 + lam^2)^(-beta) is smallest at lam_min
                    assert lam0 + pert["c"] * (1 + lam0 * lam0) ** (-pert["beta"]) >= 0.0
                    assert workloads.growth(op.model) < 1 + 2 * pert["beta"]


def test_reports_identical_with_tracing(tmp_path):
    picks = (_ops("many-models", 3, tmp_path / "plain", limit=None)[::6]
             + _ops("rays", 3, tmp_path / "plain", limit=3))
    traced_picks = (_ops("many-models", 3, tmp_path / "traced", limit=None)[::6]
                    + _ops("rays", 3, tmp_path / "traced", limit=3))
    tracer = Tracer()
    for i, (plain, traced) in enumerate(zip(picks, traced_picks)):
        code, _, out = run.run_op(cli, plain)
        tracer.install()
        try:
            traced_code, _, traced_out = run.run_op(cli, traced, tracer, i)
        finally:
            tracer.uninstall()
        assert code == traced_code
        assert _strip_timestamp(out.replace(str(tmp_path / "plain"), "")) == \
               _strip_timestamp(traced_out.replace(str(tmp_path / "traced"), ""))
    assert tracer.spans and tracer.layer_metrics()["cli.calls"][0] >= len(picks)


def test_tracer_restores_every_binding():
    import cylzeta

    modules = {name: dict(vars(m)) for name, m in sys.modules.items()
               if name == "cylzeta" or name.startswith("cylzeta.")}
    original = cylzeta.spectral_models.zeta_sq
    tracer = Tracer()
    tracer.install()
    # one wrapper, bound in the defining module and in every importer
    wrapped = cylzeta.spectral_models.zeta_sq
    assert wrapped is not original and wrapped.__wrapped__ is original
    assert cylzeta.cylinder_dets.zeta_sq is wrapped and cylzeta.zeta_sq is wrapped
    tracer.uninstall()
    for name, before in modules.items():
        after = vars(sys.modules[name])
        assert all(after[key] is value for key, value in before.items())


def test_reference_agrees_with_library(tmp_path):
    ops = (_ops("many-models", 2, tmp_path,
                commands=("zeta", "cylinder-det", "adiabatic-scan", "blocks-threshold"))
           + _ops("rays", 2, tmp_path, limit=4)
           + _ops("small-r", 2, tmp_path, commands=("blocks-threshold",), limit=2))
    assert {op.command for op in ops} == {"zeta", "cylinder-det", "adiabatic-scan",
                                          "blocks-threshold", "asym-const"}
    excess = {}
    for op in ops:
        code, _, out = run.run_op(cli, op)
        assert code in (0, 3), op.argv
        excess[" ".join(op.argv[:1] + op.argv[3:])] = reference.check(op, json.loads(out))
    assert not any(excess.values()), excess


def test_reference_flags_a_perturbed_value(tmp_path):
    op = _ops("many-models", 2, tmp_path, commands=("cylinder-det",), limit=1)[0]
    _, _, out = run.run_op(cli, op)
    report = json.loads(out)
    assert reference.check(op, report) == {}
    report["logdet"] += 1e3 * report["est_error"] + 1e-9
    assert reference.check(op, report)["logdet"] > run.GROSS_EXCESS
