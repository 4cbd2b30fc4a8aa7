"""Closed-loop benchmark of the weylgate library.

    python3 perfbench/run.py --workload analyze_haar --seed 1 --seconds 30 --trace 0

One process, one caller: each item call starts after the previous one
returned.  The library is imported from ``src/`` of the checkout this file
sits in.  Inputs come in batches built from ``--seed``, each before its calls
are timed, and no input is seen twice in a timed run.  Every output is
checked by the workload's oracle between calls, with the clock stopped.

Times are reported at reference host speed.  On a shared host the speed of
a core wanders by up to 2x within seconds, for the library and for any other
code alike.  So after each item call and its check, the workload's fixed
reference kernel (plain Python and NumPy, no weylgate) runs for at least a
millisecond, and the call's latency is scaled by the kernel's unit of time
over its mean time.  The raw wall-clock figures are printed alongside.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays a fixed
set of batches untraced and traced in turn, and prints the per-layer
metrics.  The last line
of standard output is always the JSON result; the lines before it record the
environment and a readable table.
"""

from __future__ import annotations

import os

# One BLAS thread (nproc is 2 on the reference machine): the matrices are
# 4x4, so threads only add scheduling noise.  Must be set before NumPy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 9  # fresh interpreters per run; setup_s is their median
WARMUP_BATCH = 2**63 - 1  # batch index of the untimed warm-up input, never timed
REF_SHARE = 8  # the reference runs for at least 1/REF_SHARE of each call
REF_FLOOR_NS = 1_000_000  # and for at least this long

_rng = np.random.default_rng(0)
_REF_MATS = [np.linalg.qr(_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)))[0]
             for _ in range(3)]
_REF_SIGNS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
_REF_PERMS = tuple(itertools.permutations(range(3)))
_REF_PAULIS = (np.array([[0, 1], [1, 0]], dtype=complex), np.array([[0, -1j], [1j, 0]]),
               np.array([[1, 0], [0, -1]], dtype=complex))


def ref_scan() -> float:
    """For each of three 4x4 unitaries: eigh and det, then a scan of 24
    sign/permutation images of a triple reduced mod pi, sorted."""
    acc = 0.0
    for m in _REF_MATS:
        w, v = np.linalg.eigh(m + m.conj().T)
        acc += float(np.abs(np.linalg.det(m @ v)))
        pts = []
        for s in _REF_SIGNS:
            base = np.mod(s * w[:3], np.pi)
            pts.extend(base[list(p)] for p in _REF_PERMS)
        pts.sort(key=tuple)
        acc += float(np.prod(np.cos(pts[0]) ** 2)) + float(np.max(np.abs(pts[-1] - pts[0])))
    return acc


def ref_scan_linalg() -> float:
    """``ref_scan`` plus, for each unitary, a spread of small LAPACK and
    NumPy calls: QR, SVD, eig, inv, kron, einsum."""
    acc = ref_scan()
    for m in _REF_MATS:
        q, r = np.linalg.qr(m @ m)
        k = np.kron(_REF_PAULIS[0], _REF_PAULIS[1]) @ m @ np.kron(_REF_PAULIS[2], _REF_PAULIS[0])
        acc += float(np.linalg.svd(m, compute_uv=False)[0]) + float(np.angle(np.linalg.eigvals(m)).sum())
        acc += float(np.abs(np.trace(k))) + float(np.linalg.norm(q - r))
        acc += float(np.einsum("ij,ji->", m, m.conj()).real) + float(np.abs(np.linalg.inv(m)).max())
    return acc


# Reference kernels by the name a workload gives, each with a fixed unit of
# time: about what one call took on the machine the benchmark was written on
# (Intel Xeon, 2.0 GHz, 2 vCPUs, CPython 3.11, NumPy 2.4) in its faster
# periods.  Neither kernel tracks every workload: on a busy host the scan
# alone follows analyze_haar and the LAPACK spread compile_mixed.
REF_KERNELS = {"scan": (ref_scan, 300.0), "scan+linalg": (ref_scan_linalg, 800.0)}


def reference_ns(kernel, budget_ns: int) -> float:
    """Mean time of one ``kernel`` call over at least ``budget_ns``."""
    n, t0 = 0, time.perf_counter_ns()
    while True:
        kernel()
        n += 1
        dt = time.perf_counter_ns() - t0
        if dt >= budget_ns:
            return dt / n


def load_library():
    """Import weylgate from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "weylgate" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no weylgate sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import weylgate

    if Path(weylgate.__file__).resolve().parent != SRC / "weylgate":
        raise SystemExit(f"perfbench: weylgate was imported from {weylgate.__file__}")
    return weylgate


@dataclass
class Record:
    """Item calls of a loop: wall latency and the reference kernel time
    measured after the call's check (ns), plus item and failure counts.
    ``nominal_us`` is the unit of time of the workload's reference kernel."""

    nominal_us: float
    wall: list[int] = field(default_factory=list)
    ref: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def latencies_ms(self, scaled: bool = True) -> list[float]:
        """Latency of every item call in ms; ``scaled`` gives it at reference
        host speed."""
        if not scaled:
            return [w / 1e6 for w in self.wall]
        return [w / r * self.nominal_us / 1e3 for w, r in zip(self.wall, self.ref)]

    def items_per_s(self, scaled: bool = True) -> float:
        """Completed items per second of summed item-call time."""
        return (self.attempted - self.failed) / (sum(self.latencies_ms(scaled)) / 1e3)

    def host_factor(self) -> float:
        """Observed reference time over the nominal one (> 1: the host was slow)."""
        return statistics.median(self.ref) / (self.nominal_us * 1e3)


def run_loop(workload, batches, rec: Record, deadline: float | None = None, tracer=None) -> None:
    """Call the library on every entry of each batch in turn, adding to
    ``rec``.  With a ``deadline`` (a ``time.perf_counter`` value), stop after
    the first batch that ends past it; whole batches keep the input mix."""
    kernel = REF_KERNELS[workload.reference][0]
    for entries in batches:
        for entry in entries:
            size = workload.size(entry)
            bad = 0
            t0 = time.perf_counter_ns()
            try:
                if tracer is None:
                    out = workload.call(entry)
                else:
                    with tracer.item(len(rec.wall)):
                        out = workload.call(entry)
            except Exception as exc:  # a raised library error fails the whole call
                out, bad = None, size
                rec.errors.append(f"{type(exc).__name__}: {exc}")
            wall = time.perf_counter_ns() - t0
            if out is not None:
                try:
                    bad = workload.check(entry, out)
                except Exception as exc:
                    bad = size
                    rec.errors.append(f"check: {type(exc).__name__}: {exc}")
            rec.wall.append(wall)
            rec.ref.append(reference_ns(kernel, max(REF_FLOOR_NS, wall // REF_SHARE)))
            rec.attempted += size
            rec.failed += bad
        if deadline is not None and time.perf_counter() >= deadline:
            return


def report_errors(workload, rec: Record) -> None:
    for line in rec.errors[:5]:
        print(f"perfbench: {workload.name}: {line}", file=sys.stderr)


def measure_setup(workload_name: str, seed: int) -> float:
    """Median wall time (s) for a fresh interpreter to import weylgate and
    make one warm-up call of the workload.  It is not scaled: start-up time
    tracked the reference kernels poorly (correlation 0.26 over 20 probes),
    and scaling made its spread wider, not narrower."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(workload, seed: int, seconds: float):
    setup_s = measure_setup(workload.name, seed)
    workload.call(workload.batch(seed, WARMUP_BATCH)[0])  # untimed
    rec = Record(REF_KERNELS[workload.reference][1])
    batches = (workload.batch(seed, i) for i in itertools.count())
    run_loop(workload, batches, rec, deadline=time.perf_counter() + seconds)
    report_errors(workload, rec)
    lat = rec.latencies_ms()
    raw = rec.latencies_ms(scaled=False)
    metrics = {
        "items_per_s": (rec.items_per_s(), "items/s"),
        "item_p50_ms": (statistics.median(lat), "ms"),
        "item_p90_ms": (statistics.quantiles(lat, n=10)[-1], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "fail_ratio": (rec.failed / rec.attempted, "failed/attempted"),
        "item_calls": (len(rec.wall), "count"),
        "host_factor": (rec.host_factor(), "ratio"),
        "wall.items_per_s": (rec.items_per_s(scaled=False), "items/s"),
        "wall.item_p50_ms": (statistics.median(raw), "ms"),
        "wall.item_p90_ms": (statistics.quantiles(raw, n=10)[-1], "ms"),
    }
    return rec, metrics, extra


def per_layer(workload, seed: int, seconds: float):
    """Untraced and traced loops in turn over the same fixed batches, whole
    rounds until ``seconds`` have passed, so every count repeats exactly."""
    from tracer import Tracer

    fixed = [workload.batch(seed, i) for i in range(workload.trace_batches)]
    workload.call(workload.batch(seed, WARMUP_BATCH)[0])  # untimed
    nominal_us = REF_KERNELS[workload.reference][1]
    plain, traced, tracer = Record(nominal_us), Record(nominal_us), Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        run_loop(workload, fixed, plain)
        tracer.install()
        try:
            run_loop(workload, fixed, traced, tracer=tracer)
        finally:
            tracer.uninstall()
        if time.perf_counter() >= deadline:
            break
    report_errors(workload, plain)
    report_errors(workload, traced)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl.gz")
    metrics = tracer.layer_metrics(traced.attempted, time_scale=1.0 / traced.host_factor())
    metrics["trace.overhead_ratio"] = (plain.items_per_s() / traced.items_per_s(), "ratio")
    rec = Record(nominal_us, attempted=plain.attempted + traced.attempted, failed=plain.failed + traced.failed)
    return rec, metrics, {"host_factor": (traced.host_factor(), "ratio")}


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "weylgate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        return (git / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: seeds.json 'default'")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = args.seed if args.seed is not None else json.loads((HERE / "seeds.json").read_text())["default"]

    if args.setup_probe:
        workload.call(workload.batch(seed, WARMUP_BATCH)[0])
        return 0
    if args.trace:
        loop, metrics, extra = per_layer(workload, seed, args.seconds)
    else:
        loop, metrics, extra = end_to_end(workload, seed, args.seconds)

    env = environment()
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "reference": workload.reference, "result": result,
              "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}}
    (OUT_DIR / f"result-{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(json.dumps({"env": env}))
    print(f"workload={workload.name} seed={seed} attempted={loop.attempted} failed={loop.failed}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
