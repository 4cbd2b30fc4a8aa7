"""The committed mutant list: each self-check bound that ``tests/test_bounds.py``
pins, loosened 1000× in a copy of the sources (a bound relative to ||h||, at
unit scale), and each relative bound made absolute again, with the test that
must then fail.

    python tools/mutants.py

Each mutant replaces one text of one file under ``src/weylgate/`` (the text
occurs there exactly once; ``tests/test_mutants.py`` keeps that true) and runs
``tests/test_bounds.py`` in a temporary copy of the checkout.  A mutant is
killed when the tests that fail are exactly its own ``kills``.  The repository
itself is never edited.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
BOUNDS = "tests/test_bounds.py"


class Mutant(NamedTuple):
    file: str  # under src/weylgate/
    old: str
    new: str
    kills: str  # the test of tests/test_bounds.py that must fail, with its parameters


MUTANTS = (
    Mutant("linalg.py", "ok = off <= TOL_EIG * scale[todo]", "ok = off <= 1e3 * TOL_EIG * scale[todo]",
           "test_simdiag_off_diagonal_bound[past]"),
    Mutant("linalg.py", "bound = 1e-10 * np.maximum(1.0, _frobenius(s))", "bound = 1e-7 * np.maximum(1.0, _frobenius(s))",
           "test_eigh_residual_bound[past]"),
    Mutant("linalg.py", "defect <= TOL_HERMITIAN * max(1.0, size)", "defect <= TOL_HERMITIAN * max(1e3, size)",
           "test_hermitian_bound[past]"),
    Mutant("linalg.py", "TOL_HERMITIAN * max(1.0, size))", "TOL_HERMITIAN)",
           "test_hermitian_bound_at_1e8[inside]"),
    Mutant("cartan.py", "if local > 1e-9 * max(1.0,", "if local > 1e-9 * max(1e3,",
           "test_conjugate_single_qubit_bound[past]"),
    Mutant("cartan.py", "1e-9 * max(1.0, math.hypot(*np.abs(h).flat))", "1e-9",
           "test_conjugate_single_qubit_bound_at_1e8[inside]"),
    Mutant("kak.py", "if np.abs(o1.imag).max() >= 1e-8:", "if np.abs(o1.imag).max() >= 1e-5:",
           "test_kak_real_frame_bound[past]"),
    Mutant("kak.py", "if residual > 1e-9:", "if residual > 1e-6:",
           "test_kak_reconstruction_bound[past]"),
    Mutant("kak.py", "np.array([k1, k2])) - 1.0) <= _TOL_LOCAL)", "np.array([k1, k2])) - 1.0) <= 1e3 * _TOL_LOCAL)",
           "test_kak_outer_factor_locality_bound[past]"),
    Mutant("chamber.py", "if (dist > _TOL_VERIFY).any():", "if (dist > 1e3 * _TOL_VERIFY).any():",
           "test_gate_coords_verify_bound[past]"),
    Mutant("entangler.py", "if abs(_ent(psi_in)) > 1e-9 or", "if abs(_ent(psi_in)) > 1e-6 or",
           "test_witness_self_check_bound[in-past]"),
    Mutant("entangler.py", "abs(abs(_ent(psi_out)) - 0.5) > 1e-9:", "abs(abs(_ent(psi_out)) - 0.5) > 1e-6:",
           "test_witness_self_check_bound[out-past]"),
    Mutant("synth.py", "if resid > _TOL_RESIDUAL:", "if resid > 1e3 * _TOL_RESIDUAL:",
           "test_synthesize_residual_bound[past]"),
    Mutant("synth.py", "if miss > _TOL_RESIDUAL or", "if miss > 1e3 * _TOL_RESIDUAL or",
           "test_nonnegative_rewrite_residual_bound[past]"),
    Mutant("kak.py", "& (off <= _TOL_LOCAL)", "& (off <= 1e3 * _TOL_LOCAL)",
           "test_nonnegative_rewrite_compensator_locality_bound[past]"),
    Mutant("entangler.py", "not residual <= TOL_HULL:", "not residual <= 1e3 * TOL_HULL:",
           "test_hull_witness_check_bound[residual-past]"),
    Mutant("entangler.py", "if low < -1e-12 or", "if low < -1e-9 or",
           "test_hull_witness_check_bound[floor-past]"),
    Mutant("synth.py", "if abs(det) <= 1e-12:", "if abs(det) <= 1e-15:",
           "test_pulse_time_matrix_det_bound[past]"),
    Mutant("synth.py", "q * abs(r - f) > _TOL_PERIOD for", "q * abs(r - f) > 1e3 * _TOL_PERIOD for",
           "test_period_commensurability_bound[past]"),
    Mutant("kak.py", "if resid > _TOL_LOCAL:", "if resid > 1e3 * _TOL_LOCAL:",
           "test_factor_local_residual_bound[past]"),
    Mutant("hamflow.py", "(np.abs(g1) <= 1e-6)", "(np.abs(g1) <= 1e-3)",
           "test_josephson_root_check_bound[g1-past]"),
    Mutant("hamflow.py", "(np.abs(g2.real - 1.0) <= 1e-6)", "(np.abs(g2.real - 1.0) <= 1e-3)",
           "test_josephson_root_check_bound[g2-past]"),
    Mutant("hamflow.py", "slope = self.slope", "slope = 1e-3 * self.slope",
           "test_trajectory_certificate_bound[past]"),
    Mutant("hamflow.py", "math.ldexp(size, -e) + math.ldexp(form.local, -e) + r", "math.ldexp(size, -e) + r",
           "test_trajectory_certificate_single_qubit_bound[past]"),
    Mutant("hamflow.py", "_L * float(np.ldexp(omega, e)) * _ROUND_JOSEPHSON",
           "1e-3 * _L * float(np.ldexp(omega, e)) * _ROUND_JOSEPHSON",
           "test_josephson_certificate_bound[past]"),
)


def _failures(copy: Path) -> set[str] | None:
    """The failing tests of ``tests/test_bounds.py`` in the copy, as
    ``file::name[params]``; None when pytest stopped short of running them
    (a collection error, say)."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", BOUNDS],
        cwd=copy, env=os.environ | {"PYTHONPATH": str(copy / "src")}, capture_output=True, text=True,
    )
    return None if run.returncode > 1 else set(re.findall(r"^FAILED (\S+)", run.stdout, re.MULTILINE))


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if _failures(copy) != set():
            print("the unmutated copy does not pass its tests")
            return 1
        for m in MUTANTS:
            path = copy / "src" / "weylgate" / m.file
            source = path.read_text(encoding="utf-8")
            path.write_text(source.replace(m.old, m.new, 1), encoding="utf-8")
            failed = _failures(copy)
            path.write_text(source, encoding="utf-8")
            want = f"{BOUNDS}::{m.kills}"
            ok = failed == {want}
            bad += not ok
            print(f"{'killed ' if ok else 'MISSED '} {m.file}: {m.old!r} -> {m.new!r}")
            if failed is None:
                print(f"    {BOUNDS} did not run (pytest stopped before its tests)")
                continue
            others = sorted(failed - {want})
            if want not in failed:
                print(f"    {want} passed")
            if others:
                print(f"    also failed: {', '.join(others)}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed by their own test")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
