"""Seeded sweep of ``compute_perron`` over two families of small dense inputs.

Families, generated by the test suite's own ``tests/conftest.py`` (loaded
from its file, so a seed names the same input here as in the tests), ``n``
in 5..40 on a random pattern overlaid with a random Hamiltonian cycle so
that every input is irreducible:

- ``criterion01``: ``criterion01_dense(seed)``, density 0.2, weights
  log-uniform in [1e-2, 1];
- ``wide12``: ``wide12_dense(i)``, density 0.3, weights log-uniform in
  [1e-12, 1e12], whose spread drives some inputs past the bracket.

Each op is one ``compute_perron(A, DELTA)`` under a SIGALRM cap.  Its
outcome is the ``K`` it certified at, ``capped`` when the cap fired, or the
class of the typed error it raised; a capped op is an outcome, never
dropped.  Every certified ``s`` is checked against
``oracle.dense_spectral_radius``: ``(1 - DELTA) rho < s <= rho (1 + 1e-8)``.
Prints one line per family (ops, wrong answers, the histogram of ``K``
beside the other outcomes, and the time its ops took), one line per capped
op with its time, and the total time.  Exits 1 when an answer fails its
check, else 0, whatever the other outcomes.

Usage::

    PYTHONPATH=src python3 tools/bracket_sweep.py [--criterion01 0:1000]
        [--wide12 0:120] [--cap 10]

``--criterion01`` and ``--wide12`` take ``start:stop`` seed ranges (an empty
range, ``0:0``, skips a family).
"""

from __future__ import annotations

import argparse
import collections
import importlib.util
import signal
import sys
import time
from pathlib import Path

from perronkit import PerronKitError, SparseMatrix, compute_perron, oracle

# the precision every op certifies to
DELTA = 1e-3
# the check allows s to exceed the oracle's rho by this relative margin, the
# oracle's own convergence tolerance being 1e-12
RHO_SLACK = 1e-8


class _Capped(Exception):
    """Raised by the alarm when an op runs past its cap."""


def _alarm(signum, frame):
    raise _Capped


def load_generators():
    """The test suite's ``conftest`` module, loaded from its file."""
    path = Path(__file__).parents[1] / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("perronkit_test_generators", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_op(M, cap: float) -> tuple[str, float | None]:
    """``(outcome, s)`` of one capped ``compute_perron``; ``s`` is None unless
    it certified."""
    A = SparseMatrix.from_dense(M)
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        cert = compute_perron(A, DELTA)
    except _Capped:
        return "capped", None
    except PerronKitError as exc:
        return type(exc).__name__, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    return f"K={cert.k_final:g}", cert.s


def check(M, s: float) -> str | None:
    """Why ``s`` fails its check against the oracle, or None."""
    rho, _ = oracle.dense_spectral_radius(M)
    if (1.0 - DELTA) * rho < s <= rho * (1.0 + RHO_SLACK):
        return None
    return f"s={s!r} outside ((1-{DELTA}) rho, rho (1+{RHO_SLACK})] for rho={rho!r}"


def sweep(name, make, seeds, cap) -> int:
    """Run and print one family; returns the number of wrong answers."""
    outcomes = collections.Counter()
    wrong, elapsed = 0, 0.0
    for seed in seeds:
        M = make(seed)
        start = time.perf_counter()
        outcome, s = run_op(M, cap)
        took = time.perf_counter() - start
        elapsed += took
        outcomes[outcome] += 1
        if outcome == "capped":
            print(f"{name} {seed}: capped after {took:.2f} s")
        why = None if s is None else check(M, s)
        if why is not None:
            wrong += 1
            print(f"{name} {seed}: {why}")
    ks = sorted((k for k in outcomes if k.startswith("K=")), key=lambda k: float(k[2:]))
    others = sorted(k for k in outcomes if not k.startswith("K="))
    counts = " ".join(f"{k}:{outcomes[k]}" for k in ks + others)
    print(f"{name}: {len(seeds)} ops, {wrong} wrong, {counts or '-'}, {elapsed:.2f} s")
    return wrong


def _range(text: str) -> range:
    start, stop = (int(part) for part in text.split(":"))
    return range(start, stop)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--criterion01", type=_range, default=range(0, 1000))
    parser.add_argument("--wide12", type=_range, default=range(0, 120))
    parser.add_argument("--cap", type=float, default=10.0, help="seconds per op")
    args = parser.parse_args(argv)
    generators = load_generators()
    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    wrong = sweep("criterion01", generators.criterion01_dense, args.criterion01, args.cap)
    wrong += sweep("wide12", generators.wide12_dense, args.wide12, args.cap)
    print(f"total: {time.perf_counter() - start:.2f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
