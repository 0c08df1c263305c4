"""The four benchmark workloads: seeded inputs, commands and output checks.

Inputs come from the benchmark's own ``random.Random``, never from
``chshbounds.rng``; the program only sees the generated files and seeds.
Each run draws ``JOBS_PER_RUN`` input sets and cycles through them, so a
run's median averages over several inputs (the optimizer's evaluation
count alone varies by about 8% between seeds).  Units that repeat an input
set must print the same bytes.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

JOBS_PER_RUN = 6

TSIRELSON = 2.0 * math.sqrt(2.0)
CLI = ("-m", "chshbounds.cli")
CERTIFY = str(Path(__file__).resolve().parent / "certify.py")

MC_SAMPLES = 1_000_000
RESTARTS = 32
CONFIGURATIONS = 2000
SWEEP_STEPS = 10001


@dataclass(frozen=True)
class Job:
    """One input set: the processes of one unit and what their output must show."""

    label: str
    commands: tuple[tuple[str, ...], ...]
    expect: object


@dataclass(frozen=True)
class Workload:
    name: str
    items: int
    make_jobs: Callable[[random.Random, Path], list[Job]]
    check: Callable[[Job, list[str]], list[str]]


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _program_seed(gen: random.Random) -> int:
    return gen.randrange(2**31)


# --- mc_classical -----------------------------------------------------------


def _mc_jobs(gen: random.Random, workdir: Path) -> list[Job]:
    strategies = list(itertools.product((-1.0, 1.0), repeat=4))
    jobs = []
    for j in range(JOBS_PER_RUN):
        # Weights within a factor of two of each other keep the mean depth of
        # the inverse-CDF search, and so the cost per sample, nearly the same
        # from seed to seed.
        raw = [1.0 + gen.random() for _ in strategies]
        total = sum(raw)
        weights = [w / total for w in raw]
        if abs(sum(weights) - 1.0) > 1e-12:
            raise RuntimeError(f"mixture weights sum to {sum(weights)!r}")
        seed = _program_seed(gen)
        lines = ["track: classical", "lhv_model:", "  states:"]
        for w, r in zip(weights, strategies):
            lines.append(f"    - weight: {_fmt(w)}")
            lines.append(f"      responses: [{', '.join(_fmt(v) for v in r)}]")
        path = workdir / f"mixture-{j}.yaml"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        exact = [
            sum(w * r[x] * r[y] for w, r in zip(weights, strategies))
            for x, y in ((0, 2), (0, 3), (1, 2), (1, 3))
        ]
        command = CLI + (
            "verify", "--track", "classical", "--config", str(path),
            "--samples", str(MC_SAMPLES), "--seed", str(seed),
        )
        jobs.append(Job(f"mixture-{j} seed={seed}", (command,), exact))
    return jobs


def _mc_check(job: Job, outputs: list[str]) -> list[str]:
    (report,) = json.loads(outputs[0])["reports"]
    errors = []
    if report["value"] > 2.0:
        errors.append(f"classical value {report['value']!r} exceeds 2")
    mc = report["details"]["monte_carlo"]
    if mc["samples"] != MC_SAMPLES:
        errors.append(f"monte carlo used {mc['samples']} samples")
    for k, (estimate, error, exact) in enumerate(
        zip(mc["correlations"], mc["std_errors"], job.expect)
    ):
        if not abs(estimate - exact) <= 6.0 * error:
            errors.append(f"correlation {k}: {estimate!r} is not within 6 SE of {exact!r}")
    return errors


# --- optimize_quantum -------------------------------------------------------


def _optimize_jobs(gen: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for _ in range(JOBS_PER_RUN):
        seed = _program_seed(gen)
        command = CLI + ("optimize", "--track", "quantum", "--restarts", str(RESTARTS), "--seed", str(seed))
        jobs.append(Job(f"seed={seed}", (command,), seed))
    return jobs


def _optimize_check(job: Job, outputs: list[str]) -> list[str]:
    result = json.loads(outputs[0])
    errors = []
    best = result["best_value"]
    if not TSIRELSON - 1e-6 <= best <= TSIRELSON + 1e-9:
        errors.append(f"best_value {best!r} is outside [2*sqrt(2) - 1e-6, 2*sqrt(2) + 1e-9]")
    if result["restarts"] != RESTARTS or result["seed"] != job.expect:
        errors.append("result echoes the wrong restarts or seed")
    return errors


# --- certify_random ---------------------------------------------------------


def _norm(v) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _unit_vector(gen: random.Random) -> tuple[float, float, float]:
    while True:
        v = (gen.gauss(0.0, 1.0), gen.gauss(0.0, 1.0), gen.gauss(0.0, 1.0))
        n = _norm(v)
        if n > 1e-3:
            return (v[0] / n, v[1] / n, v[2] / n)


def _cross_norm(u, v) -> float:
    return _norm((u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]))


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _closed_forms(a, ap, b, bp) -> tuple[float, float, float, float, float]:
    """Values certify.py must reproduce, computed without the package."""
    plus = _norm([x + y for x, y in zip(b, bp)])
    minus = _norm([x - y for x, y in zip(b, bp)])
    return (
        # Landau 1987: B^2 = 4I + 4 sigma.(a x a') (x) sigma.(b x b').
        2.0 * math.sqrt(1.0 + _cross_norm(a, ap) * _cross_norm(b, bp)),
        # singlet correlation E(x, y) = -x.y
        abs(_dot(a, b) + _dot(a, bp) + _dot(ap, b) - _dot(ap, bp)),
        abs(_dot(a, b) + _dot(a, bp)) + abs(_dot(ap, b) - _dot(ap, bp)),
        plus + minus,
        # [a, a'] = 2 a^a', whose bivector coefficients are those of a x a'
        2.0 * _cross_norm(a, ap),
    )


def _certify_jobs(gen: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for j in range(JOBS_PER_RUN):
        lines = []
        closed_forms = []
        for _ in range(CONFIGURATIONS):
            vectors = [_unit_vector(gen) for _ in range(4)]
            closed_forms.append(_closed_forms(*vectors))
            lines.append(" ".join(_fmt(x) for v in vectors for x in v))
        path = workdir / f"vectors-{j}.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        jobs.append(Job(f"vectors-{j}", ((CERTIFY, str(path)),), closed_forms))
    return jobs


def _certify_check(job: Job, outputs: list[str]) -> list[str]:
    rows = [[float(x) for x in line.split()] for line in outputs[0].splitlines()]
    if len(rows) != len(job.expect):
        return [f"{len(rows)} result lines for {len(job.expect)} configurations"]
    errors = []
    for i, (row, closed) in enumerate(zip(rows, job.expect)):
        norm_b, norm_c, deviation, quantum_value, vector_value, vector_bound, ga_norm = row
        failed = [
            name
            for name, ok in (
                ("||B|| vs closed form", abs(norm_b - closed[0]) <= 1e-12),
                ("||C|| <= 4", norm_c <= 4.0 + 1e-9),
                ("identity deviation", deviation < 1e-10),
                ("quantum value vs -a.b", abs(quantum_value - closed[1]) <= 1e-12),
                ("vector value", vector_value <= TSIRELSON + 1e-12),
                ("vector value vs closed form", abs(vector_value - closed[2]) <= 1e-12),
                ("vector bound", abs(vector_bound - closed[3]) <= 1e-12 and vector_bound <= TSIRELSON + 1e-12),
                ("ga commutator", ga_norm > 1e-9 and abs(ga_norm - closed[4]) <= 1e-12),
            )
            if not ok
        ]
        if failed:
            errors.append(f"configuration {i}: {', '.join(failed)} ({row})")
    return errors[:5]


# --- reports ----------------------------------------------------------------


def _reports_jobs(gen: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    sweep = CLI + ("sweep", "--steps", str(SWEEP_STEPS))
    for _ in range(JOBS_PER_RUN):
        seed = _program_seed(gen)
        verify = CLI + ("verify", "--track", "all", "--canonical", "--seed", str(seed))
        commands = (verify, sweep + ("--format", "json"), sweep + ("--format", "csv"))
        jobs.append(Job(f"seed={seed}", commands, seed))
    return jobs


def _reports_check(job: Job, outputs: list[str]) -> list[str]:
    errors = []
    reports = json.loads(outputs[0])["reports"]
    tracks = [r["track"] for r in reports]
    if tracks != ["classical", "quantum", "quantum_norm", "ga", "ga_bound"]:
        errors.append(f"verify reported tracks {tracks}")
    for r in reports:
        if not (r["attained"] and r["seed"] == job.expect and r["value"] <= r["bound"] + 1e-9):
            errors.append(f"verify report {r['track']} is not attained within its bound")
    rows = json.loads(outputs[1])["sweep"]
    csv_lines = outputs[2].splitlines()
    if len(rows) != SWEEP_STEPS or len(csv_lines) != SWEEP_STEPS + 1:
        return errors + [f"sweep has {len(rows)} JSON rows and {len(csv_lines)} CSV lines"]
    for i, (row, line) in enumerate(zip(rows, csv_lines[1:])):
        theta = row["theta_rad"]
        closed_form = TSIRELSON * abs(math.sin(theta + math.pi / 4.0))
        cells = [float(x) for x in line.split(",")]
        if (
            abs(theta - math.pi * i / (SWEEP_STEPS - 1)) > 1e-12
            or abs(row["qm_value"] - closed_form) > 1e-12
            or cells != [theta, row["classical_bound"], row["qm_value"], row["tsirelson_bound"]]
        ):
            errors.append(f"sweep row {i}: {row} / {line!r} vs closed form {closed_form!r}")
            break
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        # items per unit: samples, restarts, configurations, sweep rows
        Workload("mc_classical", MC_SAMPLES, _mc_jobs, _mc_check),
        Workload("optimize_quantum", RESTARTS, _optimize_jobs, _optimize_check),
        Workload("certify_random", CONFIGURATIONS, _certify_jobs, _certify_check),
        Workload("reports", 2 * SWEEP_STEPS, _reports_jobs, _reports_check),
    )
}
