"""Check that every given Python interpreter prints the same report bytes.

Runs the commands below under each interpreter, on the pure-Python kernels
(``CHSHBOUNDS_BACKEND=python``) and with this checkout's ``src`` on the path,
and prints one sha256 of the standard output per command per interpreter.
None of the commands reads a config file, so an interpreter needs only the
standard library.  ``perfbench/certify.py`` reads 2,000 configurations
``random_configuration(5, i)``, written once by the first interpreter.  No
command samples (``verify --track all`` draws no Monte Carlo sample), so the
``MONTE_CARLO`` program prints the Monte Carlo kernel's sums on its three
routes: a 16-state mixture of +-1 products (bit-plane tally), one of
non-integer products (in-order loop), and 300 states (bisection only).

With ``--native``, each interpreter also gets its own build of ``_native.c``:
``gcc`` with the include flags of ``pythonX.Y-config --includes`` (found next
to the interpreter) and ``setup.py``'s ``_STRICT_FP_FLAGS`` compiles it into a
temporary copy of ``src``, and the same outputs are hashed again with
``CHSHBOUNDS_BACKEND=native``, labelled ``[native]``.  No setuptools is needed.

Each report command's output must have the sha256 that the test suite pins
for it: that of its file in ``tests/golden/``, or a digest that
``tests/test_golden.py`` assigns (read without running it), so that one
``--python`` is a check of its own.  The outputs of ``perfbench/certify.py``
and ``MONTE_CARLO``, which no test pins, must equal the first interpreter's
pure-Python ones.

Exit status: 0 when every output equals its pin or the first interpreter's, 1
when any differs, 2 when a command fails.

Usage: python3 tools/interpreters.py [--native] --python PATH [--python PATH ...]
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Each command, with where the test suite pins its output: a file in
# tests/golden/, or (dict, key) of a digest dict in tests/test_golden.py.
COMMANDS = {
    "verify --track all --canonical --seed 7": "verify_all_canonical_seed7.json",
    "verify --track all --canonical --seed 7 --format csv": "verify_all_canonical_seed7.csv",
    "sweep --steps 10001": ("SWEEP_10001_SHA256", "json"),
    "sweep --steps 10001 --format csv": ("SWEEP_10001_SHA256", "csv"),
    "optimize --track quantum --restarts 32": ("OPTIMIZE_32_SHA256", "quantum"),
    "optimize --track ga --restarts 32": ("OPTIMIZE_32_SHA256", "ga"),
    "optimize --track classical": "optimize_classical.json",
}
CERTIFY = "perfbench/certify.py"
VECTORS = (
    "from chshbounds.geometry import random_configuration\n"
    "for i in range(2000):\n"
    "    vectors = random_configuration(5, i).vectors()\n"
    "    print(' '.join('%.17g' % x for v in vectors for x in v))\n"
)

MONTE_CARLO = (
    "from chshbounds._kernels import lhv_mc_sums\n"
    "mixtures = (\n"
    "    (16, lambda k, c: (-1.0, 1.0)[k >> c & 1]),\n"
    "    (16, lambda k, c: (4 * k + c + 1) / 37 - 1),\n"
    "    (300, lambda k, c: (-1.0, 0.0, 1.0)[(k + c) % 3]),\n"
    ")\n"
    "for n, product in mixtures:\n"
    "    total = sum(k % 5 + 1 for k in range(n))\n"
    "    cum_weights, acc = [], 0.0\n"
    "    for k in range(n):\n"
    "        acc += (k % 5 + 1) / total\n"
    "        cum_weights.append(acc)\n"
    "    products = [product(k, c) for k in range(n) for c in range(4)]\n"
    "    for start in (0, 4096 * 3 + 17, 2**40 + 5):\n"
    "        sums = lhv_mc_sums(cum_weights, products, 7, start, start + 10000)\n"
    "        print(' '.join(x.hex() for x in sums))\n"
)


INTERPRETER = (
    "import os, sys, sysconfig\n"
    "print('%d.%d' % sys.version_info[:2])\n"
    "print(os.path.realpath(sys.executable))\n"
    "print(sysconfig.get_config_var('EXT_SUFFIX'))\n"
)


def checked_output(command: list[str], env: dict[str, str] | None = None) -> bytes:
    """The standard output of ``command``; on failure, its standard error and exit 2."""
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True)
    except OSError as exc:
        print(f"{command[0]}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace"))
        print(f"{' '.join(command)}: exit status {done.returncode}", file=sys.stderr)
        raise SystemExit(2)
    return done.stdout


def run(python: str, arguments: tuple[str, ...], src: Path, backend: str) -> bytes:
    env = dict(os.environ, CHSHBOUNDS_BACKEND=backend, PYTHONPATH=str(src))
    return checked_output([python, *arguments], env)


def assigned(path: Path, name: str):
    """The literal that the file ``path`` assigns to ``name``, read without running it."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and name in [
            getattr(target, "id", None) for target in node.targets
        ]:
            return ast.literal_eval(node.value)
    raise SystemExit(f"{path.relative_to(ROOT)} assigns no {name}")


def strict_fp_flags() -> list[str]:
    """``_STRICT_FP_FLAGS`` of setup.py."""
    return assigned(ROOT / "setup.py", "_STRICT_FP_FLAGS")


def pinned_digest(pin: str | tuple[str, str]) -> str:
    """The sha256 that ``pin``, a value of ``COMMANDS``, names."""
    if isinstance(pin, str):
        return hashlib.sha256((ROOT / "tests" / "golden" / pin).read_bytes()).hexdigest()
    name, key = pin
    return assigned(ROOT / "tests" / "test_golden.py", name)[key]


def build_native(python: str, src: Path) -> Path:
    """Copy this checkout's ``src`` into the new directory ``src`` and
    compile ``_native.c`` there for ``python``; returns ``src``."""
    version, executable, suffix = checked_output([python, "-c", INTERPRETER]).decode().split()
    config = Path(executable).with_name(f"python{version}-config")
    includes = checked_output([str(config), "--includes"]).decode().split()
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    kernels = src / "chshbounds" / "_kernels"
    source, module = kernels / "_native.c", kernels / f"_native{suffix}"
    flags = ["-shared", "-fPIC", "-O2", *includes, *strict_fp_flags()]
    checked_output(["gcc", *flags, str(source), "-o", str(module)])
    return src


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--python", action="append", required=True, metavar="PATH", help="an interpreter to run"
    )
    parser.add_argument(
        "--native", action="store_true", help="also build and hash the native backend"
    )
    options = parser.parse_args(argv)
    pythons = options.python
    pins = {label: pinned_digest(pin) for label, pin in COMMANDS.items()}
    differs = False
    first = None
    with tempfile.TemporaryDirectory() as scratch:
        vectors = Path(scratch, "vectors.txt")
        vectors.write_bytes(run(pythons[0], ("-c", VECTORS), ROOT / "src", "python"))
        checked = [(label, ("-m", "chshbounds.cli", *label.split())) for label in COMMANDS]
        checked.append((CERTIFY, (str(ROOT / CERTIFY), str(vectors))))
        checked.append(("lhv_mc_sums", ("-c", MONTE_CARLO)))
        for number, python in enumerate(pythons):
            backends = [("python", ROOT / "src", "")]
            if options.native:
                backends.append(
                    ("native", build_native(python, Path(scratch, f"src{number}")), " [native]")
                )
            for backend, src, suffix in backends:
                outputs = (run(python, args, src, backend) for _, args in checked)
                digests = [hashlib.sha256(output).hexdigest() for output in outputs]
                first = first or digests
                for digest, first_digest, (label, _) in zip(digests, first, checked):
                    print(f"{digest}  {python}  {label}{suffix}", flush=True)
                    if digest != pins.get(label, first_digest):
                        differs = True
                        source = "its pinned sha256" if label in pins else pythons[0]
                        print(f"{python}: {label}{suffix} differs from {source}", file=sys.stderr)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
