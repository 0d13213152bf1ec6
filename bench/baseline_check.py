"""Compare layer timings, plain and traced, with the baseline table in ROADMAP.md.

Usage (from the repository root)::

    python3 bench/baseline_check.py

Each row times one library call as the table did (median of a few
``time.perf_counter`` timings) and agrees when it lies within ``FACTOR``
of the table's figure either way.  The same calls are then made with the
tracer of ``tracer.py`` installed and the median span duration is shown
beside it, so that the tracer's attribution can be compared with the
plain timing (its wrappers add about a microsecond per call and per mode
yielded, which dominates the smallest rows).  The table was taken on a
2-CPU Xeon with Python 3.11 and numpy 2.4, so other machines can
disagree without a defect.  Exits 1 if any plain timing disagrees.
"""

from __future__ import annotations

import statistics
import sys
import time

import run
from tracer import Tracer

FACTOR = 3.0

sys.path.insert(0, str(run.SRC))

from cylzeta import asymptotics, gluing, mode_problems, spectral_models  # noqa: E402


def main() -> int:
    model = spectral_models.TangentialModel
    H = model.arithmetic(0.5, 1.0)
    C = model.arithmetic(0.5, 0.1, mult_coeffs=(1, 0, 0, 2))
    cap = gluing.CapOperator()
    ray = asymptotics.make_ray(4, 1)
    # (label, table ms, function name traced, call); the call goes through
    # module attributes so that the installed wrappers see it
    rows = [
        ("hurwitz_zeta (one value)", 0.09, "hurwitz_zeta",
         lambda: spectral_models.hurwitz_zeta(-2.5, 0.3)),
        ("zeta_sq_deriv0(C)", 0.66, "zeta_sq_deriv0", lambda: spectral_models.zeta_sq_deriv0(C)),
    ]
    for label, m, times in (("H", H, (0.008, 0.024, 0.21, 60.0)),
                            ("C", C, (0.12, 0.38, 78.0, 700.0))):
        for r, ms in zip((4.0, 1.0, 0.1, 0.01), times):
            rows.append((f"exp_correction_sum({label}, {r})", ms, "exp_correction_sum",
                         lambda m=m, r=r: gluing.exp_correction_sum(m, r)))
    for r, ms in ((4.0, 2.0), (0.1, 81.0)):
        rows.append((f"adiabatic_bracket(C, {r})", ms, "adiabatic_bracket",
                     lambda r=r: gluing.adiabatic_bracket(C, cap, cap, r)))
    for t, ms in ((1e3, 0.56), (1e6, 1.3)):
        rows.append((f"shifted_robin_logdet(H, {t:g})", ms, "shifted_robin_logdet",
                     lambda t=t: asymptotics.shifted_robin_logdet(H, 1.0, ray, t)))
    seq = mode_problems.robin_mode_roots(1.0, 1.0, 40)
    rows += [
        ("robin_mode_roots(1, 1, 40)", 0.76, "robin_mode_roots",
         lambda: mode_problems.robin_mode_roots(1.0, 1.0, 40)),
        ("mode_logdet_zeta", 1.4, "mode_logdet_zeta", lambda: mode_problems.mode_logdet_zeta(seq)),
        ("mode_poisson_dtn (RK4 verify)", 6.2, "mode_poisson_dtn",
         lambda: mode_problems.mode_poisson_dtn(1.0, 1.0)),
    ]

    untraced = []
    for _, ms, _, call in rows:
        times = []
        for _ in range(3 if ms > 50 else 15):
            t0 = time.perf_counter()
            call()
            times.append((time.perf_counter() - t0) * 1e3)
        untraced.append(statistics.median(times))

    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for _, ms, name, call in rows:
            first = len(tracer.spans)
            for _ in range(3 if ms > 50 else 15):
                call()
            spans = [s for s in tracer.spans[first:] if s[1] == name and s[4] < first]
            traced.append(statistics.median((s[3] - s[2]) * 1e3 for s in spans))
    finally:
        tracer.uninstall()

    ok = True
    print(f"{'layer call':34s} {'table ms':>9s} {'plain ms':>9s} {'ratio':>6s} {'traced ms':>10s}")
    for (label, ms, _, _), plain, spanned in zip(rows, untraced, traced):
        ratio = plain / ms
        agrees = 1.0 / FACTOR <= ratio <= FACTOR
        ok &= agrees
        print(f"{label:34s} {ms:9.3f} {plain:9.3f} {ratio:6.2f} {spanned:10.3f}"
              f"{'' if agrees else '  OUTSIDE'}")
    print(f"plain timings within a factor {FACTOR:g} of the table: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
