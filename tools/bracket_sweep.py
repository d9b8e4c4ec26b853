"""Seeded sweep of ``compute_perron`` over four families of inputs.

Families, generated by the test suite's own ``tests/conftest.py`` (loaded
from its file, so a seed names the same input here as in the tests), each
input a random pattern overlaid with a random Hamiltonian cycle so that it
is irreducible:

- ``criterion01``: ``criterion01_dense(seed)``, ``n`` in 5..40, density
  0.2, weights log-uniform in [1e-2, 1], at ``delta`` = 1e-3;
- ``wide12``: ``wide12_dense(i)``, ``n`` in 5..40, density 0.3, weights
  log-uniform in [1e-12, 1e12], whose spread drives some inputs past the
  bracket, at ``delta`` = 1e-3;
- ``nearcycle``: ``ring_digraph(default_rng(seed), 1000, 1)``, a ring plus
  one random out-edge per node, whose Perron vectors spread over many
  decades, at ``delta`` = 1e-8;
- ``symmetric``: ``C + C.T`` of ``C = criterion01_dense(seed)``, exactly
  symmetric, so that ``compute_perron`` runs its one-sided bracket, at
  ``delta`` = 1e-3.

Each op is one ``compute_perron(A, delta)`` under a SIGALRM cap.  Its
outcome is the ``K`` it certified at, ``capped`` when the cap fired, or the
class of the typed error it raised; a capped op is an outcome, never
dropped.  Every certified ``s`` is checked against an oracle's bounds
``lower <= rho <= upper``: ``(1 - delta) upper < s <= lower (1 + 1e-8)``.
The dense families' oracle is ``oracle.dense_spectral_radius``
(``lower = upper = rho``), the near-cycles' the Collatz-Wielandt bounds of
inverse iteration with SuperLU: on these near-periodic inputs that power
iteration converges too slowly to run.
Prints one line per family (ops, wrong answers, the histogram of ``K``
beside the other outcomes, and the time its ops took), one line per capped
op with its time, and the total time.  Exits 1 when an answer fails its
check, else 0, whatever the other outcomes.

Usage::

    PYTHONPATH=src python3 tools/bracket_sweep.py [--criterion01 0:1000]
        [--wide12 0:120] [--nearcycle 0:0] [--symmetric 0:0] [--cap 10]

``--criterion01``, ``--wide12``, ``--nearcycle`` and ``--symmetric`` take
``start:stop`` seed ranges (an empty range, ``0:0``, skips a family;
``nearcycle`` and ``symmetric`` are skipped unless asked for).
"""

from __future__ import annotations

import argparse
import collections
import importlib.util
import signal
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from perronkit import PerronKitError, SparseMatrix, compute_perron, oracle

# the precision the small dense families' ops certify to
DELTA = 1e-3
# the near-cycles' precision, where the bracket meets their spread
NEARCYCLE_DELTA = 1e-8
# the check allows s to exceed the oracle's lower bound by this relative
# margin, the oracles' own tolerance being 1e-12 or tighter
RHO_SLACK = 1e-8
# inverse iteration steps of the near-cycles' oracle, far more than it takes
ORACLE_STEPS = 60


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


def run_op(A: SparseMatrix, delta: float, cap: float) -> tuple[str, float | None]:
    """``(outcome, s)`` of one capped ``compute_perron``; ``s`` is None unless
    it certified."""
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        cert = compute_perron(A, delta)
    except _Capped:
        return "capped", None
    except PerronKitError as exc:
        return type(exc).__name__, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    return f"K={cert.k_final:g}", cert.s


def dense_rho(A: SparseMatrix) -> tuple[float, float]:
    """``(rho, rho)`` from ``oracle.dense_spectral_radius``."""
    rho, _ = oracle.dense_spectral_radius(A.to_dense())
    return rho, rho


def cw_rho(A: SparseMatrix) -> tuple[float, float]:
    """``(lower, upper)`` around ``rho(A)``: the best Collatz-Wielandt bounds
    of inverse iteration from all-ones, each step a SuperLU solve shifted
    just above the best upper bound, so its inverse is positive.  No
    perronkit solver is involved, and the bounds hold for any positive
    iterate, however accurate its solve."""
    csr = A.csr()
    n = csr.shape[0]
    x = np.ones(n)
    ratios = csr @ x / x
    lower, upper = ratios.min(), ratios.max()
    for _ in range(ORACLE_STEPS):
        shifted = sp.csc_matrix(upper * (1.0 + 1e-9) * sp.identity(n) - csr)
        y = spla.splu(shifted).solve(x)
        if not np.all(y > 0.0):
            break
        x = y / y.max()
        ratios = csr @ x / x
        lower, upper = max(lower, ratios.min()), min(upper, ratios.max())
        if upper - lower <= 1e-13 * upper:
            break
    return float(lower), float(upper)


def check(A: SparseMatrix, delta: float, rho, s: float) -> str | None:
    """Why ``s`` fails its check against the bounds ``rho(A)`` returns, or
    None."""
    lower, upper = rho(A)
    if (1.0 - delta) * upper < s <= lower * (1.0 + RHO_SLACK):
        return None
    return (
        f"s={s!r} outside ((1-{delta}) upper, lower (1+{RHO_SLACK})] for rho in "
        f"[{lower!r}, {upper!r}]"
    )


def sweep(name, make, delta, rho, seeds, cap) -> int:
    """Run and print one family; returns the number of wrong answers."""
    outcomes = collections.Counter()
    wrong, elapsed = 0, 0.0
    for seed in seeds:
        A = make(seed)
        start = time.perf_counter()
        outcome, s = run_op(A, delta, cap)
        took = time.perf_counter() - start
        elapsed += took
        outcomes[outcome] += 1
        if outcome == "capped":
            print(f"{name} {seed}: capped after {took:.2f} s")
        why = None if s is None else check(A, delta, rho, s)
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
    parser.add_argument("--nearcycle", type=_range, default=range(0, 0))
    parser.add_argument("--symmetric", type=_range, default=range(0, 0))
    parser.add_argument("--cap", type=float, default=10.0, help="seconds per op")
    args = parser.parse_args(argv)
    gen = load_generators()

    def dense(make):
        return lambda seed: SparseMatrix.from_dense(make(seed))

    def nearcycle(seed):
        return gen.ring_digraph(np.random.default_rng(seed), 1000, 1)

    def symmetric(seed):
        C = gen.criterion01_dense(seed)
        return C + C.T

    families = (
        ("criterion01", dense(gen.criterion01_dense), DELTA, dense_rho),
        ("wide12", dense(gen.wide12_dense), DELTA, dense_rho),
        ("nearcycle", nearcycle, NEARCYCLE_DELTA, cw_rho),
        ("symmetric", dense(symmetric), DELTA, dense_rho),
    )
    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    wrong = 0
    for name, make, delta, rho in families:
        if getattr(args, name):
            wrong += sweep(name, make, delta, rho, getattr(args, name), args.cap)
    print(f"total: {time.perf_counter() - start:.2f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
