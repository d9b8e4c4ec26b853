"""perronkit benchmark: certified-result latency on four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload perron-dense --seed 1 --seconds 12 --trace 0

The run imports perronkit from ``src/`` of the checkout, generates the
workload's inputs from ``--seed``, and times whole passes over them in a
closed loop: one public call at a time from this single process.  Every
result is checked (against an oracle, a recomputed residual, the known
spectral radius or a byte-identical rerun) outside the timed region.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.
Details (per-op times, failures, spans, environment) go to
``.perfbench_out/`` in the checkout.

Host-speed normalization: on a shared machine the same op can take 40% longer
for a minute at a time, and CPU time tracks wall time, so the slowdown is in
the host, not in this process.  A fixed calibration kernel (numpy, LAPACK
and SuperLU calls on constant inputs, independent of perronkit) is timed
between ops, and each op's wall time is rescaled by the ratio of the
kernel's reference time to its time measured around that op.  Reported times
are thus seconds at reference host speed; raw medians are kept in the
details file.
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP to one thread before numpy is imported anywhere
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("perron-dense", "perron-sparse", "msolve-sparse", "cli-apps")
OP_TIME_CAP_S = 30.0
# no op starts later than this after process start, so a run ends well
# within three minutes even when ops hit the cap
START_DEADLINE_S = 110.0
SETUP_REPEATS = 3
IMPORT_PAIRS = 5
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import perronkit, perronkit.cli"
# the third-party and standard modules perronkit imports; a fresh interpreter
# importing them is the yardstick of host speed for the import part of set-up
REFERENCE_PROBE = (
    "import argparse, dataclasses, enum, json, pathlib, numpy, scipy.linalg, "
    "scipy.sparse, scipy.sparse.csgraph, scipy.sparse.linalg"
)
# REFERENCE_PROBE's wall time on a quiet host
REFERENCE_IMPORT_S = 0.4
CALIBRATION_INTERVAL_S = 0.1


class OpTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so that no ``except
    Exception`` inside the library can swallow it."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_perronkit():
    """Import perronkit from this checkout's ``src/``; exits with status 2
    when the sources are missing, so a run never measures another copy."""
    if not (SRC / "perronkit" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no perronkit sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import perronkit
    import perronkit.cli  # noqa: F401

    if Path(perronkit.__file__).resolve().parent != (SRC / "perronkit").resolve():
        sys.stderr.write(f"perfbench: imported perronkit from {perronkit.__file__}, not {SRC}\n")
        sys.exit(2)


def _time_interpreter(code: str, *args: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, *args], check=True)
    return time.perf_counter() - t0


def _time_import() -> tuple[float, float]:
    """Wall times of a fresh interpreter that imports perronkit and its CLI,
    numpy and scipy included (what every batch CLI invocation pays), and of
    one run just before it that imports only perronkit's dependencies.  The
    kernel of ``Calibrator`` does not track interpreter start-up and module
    loading; the second time is the yardstick of host speed for that work."""
    reference = _time_interpreter(REFERENCE_PROBE)
    return _time_interpreter(IMPORT_PROBE, str(SRC)), reference


class Calibrator:
    """Times a fixed kernel that mixes interpreter-bound numpy calls, a dense
    LAPACK LU and a SuperLU factor-and-solve, the three kinds of work the
    workloads do.  ``REFERENCE_S`` is its time on a quiet host."""

    REFERENCE_S = 4.0e-3

    def __init__(self):
        import numpy as np
        import scipy.linalg
        import scipy.sparse as sp
        import scipy.sparse.linalg

        rng = np.random.default_rng(20181005)
        self._np = np
        self._lu_factor = scipy.linalg.lu_factor
        self._splu = scipy.sparse.linalg.splu
        self._dense = rng.random((40, 40)) + 40.0 * np.eye(40)
        sparse = sp.random(300, 300, density=0.02, random_state=np.random.RandomState(1))
        self._sparse = (sparse + 10.0 * sp.identity(300)).tocsc()
        self._x = rng.random(300)
        self.samples = []  # (time, kernel seconds)
        self._last = -1.0

    def _kernel(self) -> float:
        np = self._np
        x = self._x
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(300):
            acc += float(np.abs(1.5 * x - x).max())
        self._lu_factor(self._dense, check_finite=False)
        self._splu(self._sparse).solve(x)
        return time.perf_counter() - t0

    def sample(self):
        kernel = min(self._kernel() for _ in range(3))
        now = time.perf_counter()
        self.samples.append((now, kernel))
        self._last = now

    def maybe_sample(self):
        if time.perf_counter() - self._last >= CALIBRATION_INTERVAL_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """Reference-to-measured speed ratio around the interval [t0, t1]:
        the mean kernel time of the last sample before and the first sample
        after it."""
        before = [k for t, k in self.samples if t <= t0]
        after = [k for t, k in self.samples if t >= t1]
        near = ([before[-1]] if before else []) + ([after[0]] if after else [])
        if not near:
            near = [k for _, k in self.samples]
        return self.REFERENCE_S / (sum(near) / len(near))


class DigestStore:
    """Output digests and exact counts per input, kept across runs in the
    checkout.  Keys include a hash of the program and benchmark sources, so
    only runs of the same code and seed are compared; a mismatch, within a
    run or across runs, fails the op."""

    def __init__(self, path: Path, workload: str, seed: int):
        self.path = path
        try:
            self.data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.data = {}
        code = hashlib.sha256()
        for file in sorted(list((SRC / "perronkit").rglob("*.py")) + list(BENCH.glob("*.py"))):
            code.update(file.name.encode())
            code.update(file.read_bytes())
        self.prefix = f"{code.hexdigest()[:16]}/{workload}/{seed}/"

    def check(self, key: str, kind: str, digest: str) -> str | None:
        full = f"{self.prefix}{key}/{kind}"
        stored = self.data.setdefault(full, digest)
        if stored != digest:
            return f"{kind} digest {digest} differs from an earlier run's {stored}"
        return None

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True, indent=0))
        os.replace(tmp, self.path)


class Runner:
    def __init__(self, calibrator, store, tracer=None):
        self.cal = calibrator
        self.store = store
        self.tracer = tracer
        self.records = []
        self.failures = []
        self.truncated = False
        self._in_op = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        # an alarm that lands after the op returned must not escape
        if self._in_op:
            raise OpTimeout()

    def run(self, op, traced=False) -> dict:
        """Time one op under the cap, then check it outside the timing."""
        self.cal.maybe_sample()
        error = None
        result = None
        values = None
        if traced:
            self.tracer.install()
            self.tracer.begin_op()
        signal.setitimer(signal.ITIMER_REAL, OP_TIME_CAP_S)
        t0 = time.perf_counter()
        try:
            self._in_op = True
            result = op.call()
        except OpTimeout:
            error = f"exceeded the {OP_TIME_CAP_S:g} s cap"
        except Exception as exc:  # the op's failure is data; keep measuring
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            self._in_op = False
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            if traced:
                values = self.tracer.end_op()
                self.tracer.uninstall()
        if t1 - t0 >= CALIBRATION_INTERVAL_S:
            self.cal.sample()
        if error is None:
            error = self._verify(op, result, values)
        record = {"key": op.key, "t0": t0, "t1": t1, "raw_s": t1 - t0, "traced": traced, "ok": error is None}
        if values is not None:
            record["layers"] = values
        if error is not None:
            self.failures.append({"key": op.key, "traced": traced, "error": error})
        self.records.append(record)
        return record

    def _verify(self, op, result, values) -> str | None:
        try:
            collected = op.collect(result)
            error = op.check(collected)
            if error is None:
                error = self.store.check(op.key, "output", op.digest(collected))
        except Exception:
            return "check raised: " + traceback.format_exc(limit=2).strip().splitlines()[-1]
        if error is None and values is not None:
            counts = hashlib.sha256(self.tracer.exact_counts(values).encode()).hexdigest()[:32]
            error = self.store.check(op.key, "counts", counts)
        return error

    def past_deadline(self, started: float) -> bool:
        if time.perf_counter() - started > START_DEADLINE_S:
            self.truncated = True
        return self.truncated

    def finish(self):
        self.cal.sample()
        for record in self.records:
            record["norm_s"] = record["raw_s"] * self.cal.factor(record["t0"], record["t1"])


def _environment() -> dict:
    import numpy as np
    import scipy

    env = {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__}
    try:
        env["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        env["openblas"] = None
    env["nproc"] = os.cpu_count()
    env["cpu_model"] = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env["blas_threads"] = os.environ["OPENBLAS_NUM_THREADS"]
    return env


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse_args(argv)
    _import_perronkit()
    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        return _run(args, workload, workdir, started, tracer)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _run(args, workload, workdir, started, tracer) -> int:
    imports = [_time_import() for _ in range(IMPORT_PAIRS)]
    # the import at reference host speed
    import_norm = REFERENCE_IMPORT_S * statistics.median(probe / ref for probe, ref in imports)
    cal = Calibrator()
    cal.sample()
    setups = []
    ops = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workload.build(args.seed, workdir)
        workload.warm_up(workdir)
        t1 = time.perf_counter()
        cal.sample()
        setups.append((t1 - t0) * cal.factor(t0, t1))
    setup_norm = import_norm + statistics.median(setups)

    store = DigestStore(OUT / "digests.json", args.workload, args.seed)
    if args.trace:
        runner = Runner(cal, store, tracer.Tracer())
        for i, op in enumerate(ops):
            if runner.past_deadline(started):
                break
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                runner.run(op, traced)
        passes = 1
    else:
        runner = Runner(cal, store)
        passes = max(2, round(args.seconds / workload.nominal_pass_s))
        for _ in range(passes):
            for op in ops:
                if runner.past_deadline(started):
                    break
                runner.run(op)
    runner.finish()
    store.save()

    records = runner.records
    attempted = len(records)
    failed = len(runner.failures)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "truncated": runner.truncated,
        "failures": runner.failures[:50],
        "environment": _environment(),
        "calibration": {"reference_s": Calibrator.REFERENCE_S, "samples": len(cal.samples),
                        "median_s": statistics.median(k for _, k in cal.samples)},
    }
    if args.trace:
        metrics, details = _trace_metrics(runner, tracer)
    else:
        metrics, details = _end_to_end_metrics(records, setup_norm, import_norm)
        details["import_samples_s"] = imports
    summary.update(details)
    summary["ops"] = [
        {k: v for k, v in r.items() if k not in ("t0", "t1")} for r in records
    ]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(summary, indent=1, default=float))
    if args.trace:
        _write_spans(OUT / f"{name}-spans.json", runner.tracer.spans)

    if attempted == 0:
        sys.stderr.write("perfbench: no op was attempted\n")
        return 1
    line = {k: summary[k] for k in ("workload", "seed", "passes", "attempted", "failed", "fail_frac")}
    line.update({k: details[k] for k in details if k in ("tail_percentile", "samples", "raw_latency_p50_s",
                                                       "overhead_frac", "not_applicable", "absent")})
    print("perfbench:", json.dumps(line))
    for failure in runner.failures[:5]:
        print("perfbench: FAILED", json.dumps(failure))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _tail_index(count: int) -> int:
    """Index, in ascending order, of the highest order statistic with at
    least ten samples above it.  With fewer than 21 samples that statistic
    is not above the median, so the maximum is taken instead."""
    return count - 11 if count >= 21 else count - 1


def _end_to_end_metrics(records, setup_s, import_s):
    times = [r["norm_s"] for r in records]
    ok = [r for r in records if r["ok"]]
    tail = _tail_index(len(times))
    busy = sum(times)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "latency_p50_s": {"value": statistics.median(times), "unit": "s"},
        "latency_tail_s": {"value": sorted(times)[tail], "unit": "s"},
        "ops_per_s": {"value": len(ok) / busy if busy > 0 else 0.0, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    details = {
        "tail_percentile": 100.0 * tail / (len(times) - 1) if len(times) > 1 else 100.0,
        "samples": len(times),
        "raw_latency_p50_s": statistics.median(r["raw_s"] for r in records),
        "import_s": import_s,
        "metrics": metrics,
    }
    return metrics, details


def _trace_metrics(runner, tracer):
    traced = [r for r in runner.records if r["traced"]]
    plain = {r["key"]: r for r in runner.records if not r["traced"]}
    per_op = []
    for record in traced:
        factor = record["norm_s"] / record["raw_s"] if record["raw_s"] > 0 else 1.0
        per_op.append({
            name: value * factor if name in tracer.TIME_METRICS else value
            for name, value in record.get("layers", {}).items()
        })
    values, not_applicable = tracer.summarize(per_op, runner.tracer.absent)
    paired = [(r["norm_s"], plain[r["key"]]["norm_s"]) for r in traced if r["key"] in plain]
    untraced_total = sum(u for _, u in paired)
    overhead = (sum(t for t, _ in paired) / untraced_total - 1.0) if untraced_total > 0 else 0.0
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, (unit, _) in tracer.PER_LAYER.items()}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    details = {
        "overhead_frac": overhead,
        "not_applicable": not_applicable,
        "absent": runner.tracer.absent,
        "traced_ops": len(traced),
        "metrics": metrics,
    }
    return metrics, details


def _write_spans(path: Path, spans):
    """Spans as [layer, name, start, end, parent index], times relative to
    the first span."""
    base = spans[0][2] if spans else 0.0
    rows = [[layer, name, round(t0 - base, 7), round((t1 or t0) - base, 7), parent]
            for layer, name, t0, t1, parent in spans]
    path.write_text(json.dumps({"columns": ["layer", "name", "start_s", "end_s", "parent"], "spans": rows}))


if __name__ == "__main__":
    sys.exit(main())
