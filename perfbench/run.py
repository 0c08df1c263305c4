#!/usr/bin/env python3
"""End-to-end benchmark of chshbounds over four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` with whichever kernel backend it selects by default.  One client
runs units back to back (a closed loop, one process at a time, no threads)
for S seconds, checks every output, and prints the end-to-end metrics.  With
``--trace 1`` it instead runs untraced units for S seconds (for the process
CPU figures), then one unit in-process untraced and one traced, and prints
the per-layer metrics.  The last line of standard output is the result as
one JSON object.

Workloads (see BENCHMARK.json for why each was chosen): mc_classical,
optimize_quantum, certify_random, reports.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import JOBS_PER_RUN, MC_SAMPLES, WORKLOADS, Job, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The first input set runs at least twice, for the byte-identity check.
MIN_UNITS = JOBS_PER_RUN + 1

# On a shared 2-vCPU Xeon VM, CPU-bound code ran 1.2-2.4x slower for
# stretches of seconds to minutes (CPU time tracked wall time, so it was not
# scheduling).  Medians over one run cannot average that out, so every time is
# also divided by the host's speed at that moment: the time of a fixed
# pure-Python loop run just before and just after each unit, relative to
# REFERENCE_CALIBRATION_S, the loop's time on an unloaded core of that VM under
# CPython 3.11.  The benchmark and its children are pinned to one CPU, because
# the slow stretches of the two vCPUs were independent: unpinned, the loop and
# the unit correlated at 0.14, pinned at 0.85.
CALIBRATION_REPS = 10_000
REFERENCE_CALIBRATION_S = 0.1

_PROBE = """
import importlib, json
import chshbounds, chshbounds.cli
from chshbounds import _kernels
try:
    importlib.import_module("chshbounds._kernels._native")
    native = {"status": "built", "error": None}
except ModuleNotFoundError as exc:
    native = {"status": "not built", "error": repr(exc)}
except ImportError as exc:
    native = {"status": "built but broken", "error": repr(exc)}
print(json.dumps({"package_file": chshbounds.__file__, "backend": _kernels.BACKEND_NAME,
                  "available_backends": list(_kernels.available_backends()), "native": native}))
"""


@dataclass
class Unit:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: float | None = None
    slowdown: float = 1.0
    outputs: list[str] = field(default_factory=list)
    digest: str = ""
    errors: list[str] = field(default_factory=list)


def _digest(outputs: list[str]) -> str:
    return hashlib.sha256("\0".join(outputs).encode("utf-8")).hexdigest()


def host_slowdown() -> float:
    """Time of a fixed 4x4 complex matrix product loop over its reference time."""
    a = [complex(i % 5 - 2, 3 - i % 7) * 0.25 for i in range(16)]
    start = time.perf_counter()
    for _ in range(CALIBRATION_REPS):
        out = [0j] * 16
        for i in range(4):
            for j in range(4):
                acc = 0j
                for k in range(4):
                    acc = acc + a[i * 4 + k] * a[k * 4 + j]
                out[i * 4 + j] = acc
    return (time.perf_counter() - start) / REFERENCE_CALIBRATION_S


# Every program process is started by this small launcher, which times it and
# reads its rusage.  The peak RSS that wait4 reports for a child is at least
# the peak of the process that spawned it (the kernel carries the high-water
# mark over at exec), so the spawner must stay smaller than any program run:
# this one peaks near 9 MB, the smallest chshbounds process near 17 MB.
_LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, ru = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as fh:
    fh.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} {ru.ru_utime + ru.ru_stime!r} {ru.ru_maxrss}")
"""


def _run_process(argv: list[str], env: dict[str, str], workdir: Path):
    """Run one process to completion; return (exit code, stdout, wall s, cpu s, peak RSS MB)."""
    usage = workdir / "usage"
    launcher = [sys.executable, "-S", "-c", _LAUNCHER, str(usage), *argv]
    with open(workdir / "stderr", "wb") as err:
        proc = subprocess.Popen(
            launcher, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT, start_new_session=True
        )
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"process launcher exited {proc.returncode}")
    code, wall, cpu, rss_kb = usage.read_text().split()
    return int(code), out, float(wall), float(cpu), int(rss_kb) / 1024.0


def run_unit(job: Job, env: dict[str, str], workdir: Path) -> Unit:
    unit = Unit()
    for command in job.commands:
        code, out, wall, cpu, rss_mb = _run_process([sys.executable, *command], env, workdir)
        unit.wall_s += wall
        unit.cpu_s += cpu
        unit.peak_rss_mb = max(unit.peak_rss_mb, rss_mb)
        unit.outputs.append(out.decode("utf-8", errors="replace"))
        if code != 0:
            tail = (workdir / "stderr").read_text(errors="replace").strip().splitlines()[-1:]
            unit.errors.append(f"exit {code} from {' '.join(command[:4])}: {tail}")
    return unit


def setup_time(env: dict[str, str], workdir: Path) -> float:
    """Fresh interpreter to chshbounds.cli imported, kernel backend selected."""
    code, _, wall, _, _ = _run_process([sys.executable, "-c", "import chshbounds.cli"], env, workdir)
    if code != 0:
        raise RuntimeError(f"importing chshbounds.cli failed with exit {code}")
    return wall


def check_unit(workload: Workload, job: Job, unit: Unit, first: dict[str, str]) -> None:
    """Check a unit's outputs, then keep only their digest for later units."""
    if not unit.errors:
        try:
            unit.errors.extend(workload.check(job, unit.outputs))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            unit.errors.append(f"unparseable output: {exc!r}")
        unit.digest = _digest(unit.outputs)
        if first.setdefault(job.label, unit.digest) != unit.digest:
            unit.errors.append(f"{job.label}: stdout differs from the first unit with these inputs")
    unit.outputs = []


def measure(workload, jobs, env, workdir, seconds, with_setup: bool) -> list[Unit]:
    """Closed loop, one client: units back to back until ``seconds`` have passed."""
    units: list[Unit] = []
    first: dict[str, str] = {}
    start = time.perf_counter()
    slowdown = host_slowdown()
    while len(units) < MIN_UNITS or time.perf_counter() - start < seconds:
        setup_s = setup_time(env, workdir) if with_setup else None
        job = jobs[len(units) % len(jobs)]
        unit = run_unit(job, env, workdir)
        unit.setup_s = setup_s
        after = host_slowdown()
        unit.slowdown = 0.5 * (slowdown + after)
        slowdown = after
        check_unit(workload, job, unit, first)
        for error in unit.errors:
            print(f"perfbench: unit {len(units)} failed: {error}", file=sys.stderr)
        units.append(unit)
    if all(u.errors for u in units):
        raise RuntimeError("every unit failed")
    return units


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(args, env, workdir) -> dict:
    code, out, _, _, _ = _run_process([sys.executable, "-c", _PROBE], env, workdir)
    if code != 0:
        raise RuntimeError(f"cannot import chshbounds from {SRC}: exit {code}")
    probe = json.loads(out)
    if not Path(probe["package_file"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"chshbounds was imported from {probe['package_file']}, not {SRC}")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "backend": probe["backend"],
        "available_backends": probe["available_backends"],
        "native": probe["native"],
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(workload: Workload, units: list[Unit]) -> dict:
    ok = [u for u in units if not u.errors]
    print(f"{workload.name} host slowdown: median {statistics.median(u.slowdown for u in units):.3f}")
    scaled = {}
    for name, pick, done in (("setup_s", lambda u: u.setup_s, units), ("wall_s", lambda u: u.wall_s, ok)):
        raw = [pick(u) for u in done]
        scaled[name] = statistics.median(pick(u) / u.slowdown for u in done)
        q1, q2, q3 = _quartiles(raw)
        print(
            f"{workload.name} {name}: median {q2:.4f} s as measured (quartiles {q1:.4f}..{q3:.4f}, "
            f"n={len(raw)}), {scaled[name]:.4f} s at reference host speed"
        )
    failed_ratio = (len(units) - len(ok)) / len(units)
    print(f"{workload.name} failed_ratio: {failed_ratio} ({len(units) - len(ok)} of {len(units)})")
    metrics = {
        "setup_s": (scaled["setup_s"], "s"),
        "wall_s": (scaled["wall_s"], "s"),
        "items_per_s": (workload.items / scaled["wall_s"], "1/s"),
        "peak_rss_mb": (statistics.median(u.peak_rss_mb for u in ok), "MB"),
        "ok_ratio": (len(ok) / len(units), "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def _in_process(job: Job, cli_main, certify_main) -> tuple[float, list[str]]:
    """Run one unit inside this process; return (wall s, stdout of each command)."""
    outputs = []
    start = time.perf_counter()
    for command in job.commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if command[:2] == ("-m", "chshbounds.cli"):
                code = cli_main(list(command[2:]))
            else:
                code = certify_main(list(command[1:]))
        if code != 0:
            raise RuntimeError(f"in-process {' '.join(command[:4])} exited {code}")
        outputs.append(buf.getvalue())
    return time.perf_counter() - start, outputs


def per_layer(workload: Workload, jobs: list[Job], units: list[Unit]) -> tuple[dict, list[str]]:
    sys.path.insert(0, str(SRC))
    import certify
    from chshbounds import cli

    before = host_slowdown()
    untraced_s, plain = _in_process(jobs[0], cli.main, certify.main)
    between = host_slowdown()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        traced_s, traced = _in_process(jobs[0], tracer.wrap("cli.main", cli.main), certify.main)
    finally:
        restored = patches.restore()
    after = host_slowdown()
    errors = []
    if not restored:
        errors.append("a traced attribute was not restored")
    if plain != traced or (not units[0].errors and units[0].digest != _digest(plain)):
        errors.append("in-process output differs from the subprocess or untraced output")
    m = tracer.metrics()
    errors += tracing.consistency_errors(workload.name, m, MC_SAMPLES)

    ok = [u for u in units if not u.errors]
    m["process.cpu_s"] = statistics.median(u.cpu_s for u in ok)
    m["process.cpu_util"] = statistics.median(u.cpu_s / u.wall_s for u in ok)
    m["trace.overhead_ratio"] = (traced_s / (between + after)) / (untraced_s / (before + between)) - 1.0
    print(f"{workload.name} traced unit {traced_s:.4f} s, untraced in-process {untraced_s:.4f} s")
    return {name: {"value": v, "unit": _layer_unit(name)} for name, v in m.items()}, errors


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith("util"):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chshbounds" / "cli.py").is_file():
        print(f"perfbench: no chshbounds sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Imports read cached bytecode, as they do from an installed package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        meta = run_metadata(args, env, workdir)
        meta["pinned_cpu"] = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {meta["pinned_cpu"]})
        jobs = workload.make_jobs(random.Random(f"{args.workload}:{args.seed}"), workdir)
        meta["inputs"] = [job.label for job in jobs]
        print("perfbench meta " + json.dumps(meta, sort_keys=True))
        # Untimed warm-up: byte-compiles the package into src/, as an install would.
        setup_time(env, workdir)
        errors: list[str] = []
        if args.trace:
            units = measure(workload, jobs, env, workdir, args.seconds, with_setup=False)
            metrics, errors = per_layer(workload, jobs, units)
        else:
            units = measure(workload, jobs, env, workdir, args.seconds, with_setup=True)
            metrics = end_to_end(workload, units)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)
    failed = sum(1 for u in units if u.errors)
    result = {
        "correct": failed == 0 and not errors,
        "attempted": len(units),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
