"""Command-line interface: JSON contracts, file I/O, exit codes."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import PI
from weylgate import controlled_gate, errors, gate_coords, named_gate
from weylgate import cli
from weylgate.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_invariants_cnot(capsys):
    doc = run_json(capsys, "invariants", "cnot")
    assert_allclose(doc["g1"], [0.0, 0.0], atol=1e-10)
    assert_allclose(doc["g2"], 1.0, atol=1e-10)


def test_coords_swap(capsys):
    doc = run_json(capsys, "coords", "swap")
    assert_allclose(doc["c"], [PI / 2, PI / 2, PI / 2], atol=1e-8)


def test_equiv(capsys):
    doc = run_json(capsys, "equiv", "cnot", "cz")
    assert doc["locally_equivalent"] is True
    doc = run_json(capsys, "equiv", "cnot", "swap")
    assert doc["locally_equivalent"] is False


def test_pe_verdict(capsys):
    doc = run_json(capsys, "pe", "cnot")
    assert doc["is_pe"] is True
    assert len(doc["weights"]) == 4
    doc = run_json(capsys, "pe", "swap")
    assert doc["is_pe"] is False
    assert doc["weights"] is None


def test_kak_roundtrip_fields(capsys):
    doc = run_json(capsys, "kak", "iswap")
    assert doc["residual"] < 1e-9
    assert_allclose(doc["coords"], [PI / 2, PI / 2, 0.0], atol=1e-8)
    k1 = np.array([[complex(re, im) for re, im in row] for row in doc["k1"]])
    assert_allclose(k1 @ k1.conj().T, np.eye(4), atol=1e-9)
    assert "k1_factors" in doc and "k2_factors" in doc


def test_entangle_input(capsys):
    doc = run_json(capsys, "entangle-input", "cnot")
    assert doc["ent_in_abs"] < 1e-9
    assert abs(doc["ent_out_abs"] - 0.5) < 1e-9


def test_entangle_input_rejects_swap(capsys):
    code, out, err = run(capsys, "entangle-input", "swap")
    assert code == 1
    assert "NotPerfectEntangler" in json.loads(err)["error"]["type"]


def test_volumes(capsys):
    doc = run_json(capsys, "volumes")
    assert_allclose(doc["fraction"], 0.5, atol=1e-12)
    assert_allclose(doc["chamber"], PI**3 / 24, rtol=1e-10)


def test_pe_fraction(capsys):
    doc = run_json(capsys, "pe-fraction", "--samples", "50000", "--seed", "3")
    assert abs(doc["fraction"] - 0.5) < 0.02
    assert doc["samples"] == 50000


def test_trajectory_json(capsys):
    doc = run_json(capsys, "trajectory", "isotropic", "--t-max", "3.0", "--steps", "7")
    assert doc["hamiltonian"]["kind"] == "isotropic"
    assert len(doc["samples"]) == 7
    assert doc["samples"][0]["t"] == 0.0


def test_trajectory_csv(capsys):
    code, out, err = run(
        capsys, "trajectory", "xy", "--steps", "5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,c1,c2,c3,g1_re,g1_im,g2,is_pe"
    assert len(lines) == 6


def test_trajectory_rejects_an_empty_field(capsys):
    code, out, err = run(capsys, "trajectory", "exchange(1,,0.5)")
    assert code == 1 and out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "InvalidInputError" and "empty" in payload["message"]


# NumPy refuses each of these counts before it allocates anything; a count
# NumPy would try to allocate has no place here.
@pytest.mark.parametrize("steps", [10**20, 2**62, 2**63], ids=["1e20", "2^62", "2^63"])
def test_trajectory_rejects_a_grid_too_large_to_build(capsys, steps):
    code, out, err = run(capsys, "trajectory", "isotropic", "--steps", str(steps))
    assert code == 1 and out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "InvalidInputError" and f"--steps {steps}" in payload["message"]


def test_synth_cnot(capsys):
    doc = run_json(capsys, "synth", "cnot", "isotropic")
    assert doc["residual"] < 1e-8
    assert len(doc["times"]) == 3


def test_synth_nonnegative_flag(capsys):
    doc = run_json(capsys, "synth", "swap", "isotropic", "--nonnegative")
    assert "nonnegative_times" in doc
    if doc["nonnegative_times"] is not None:
        assert min(doc["nonnegative_times"]) >= 0


def test_josephson_min_time(capsys):
    doc = run_json(capsys, "josephson-min-time")
    assert abs(doc["alpha_ratio"] - 1.199151) < 1e-4
    assert abs(doc["t"] - 2.730939) < 1e-4


def test_gate_export_import_roundtrip(capsys, tmp_path):
    code, out, err = run(capsys, "gate", "sqrtswap")
    assert code == 0
    path = tmp_path / "gate.json"
    path.write_text(out)
    doc = run_json(capsys, "coords", str(path))
    assert_allclose(doc["c"], [PI / 4, PI / 4, PI / 4], atol=1e-10)


@pytest.mark.parametrize(
    "name",
    ["identity", "cnot", "cz", "swap", "sqrtswap", "sqrtswap_inv", "iswap", "cu(0.3,0.2,0.1)"],
)
def test_gate_file_round_trips_bit_for_bit(capsys, tmp_path, name):
    # 17 significant digits round-trip every double; a second pass at 12 would not.
    code, out, err = run(capsys, "gate", name)
    assert code == 0, err
    path = tmp_path / "gate.json"
    path.write_text(out)
    got = np.asarray(cli.load_gate(str(path)), dtype=np.complex128)
    assert np.array_equal(got, np.asarray(named_gate(name), dtype=np.complex128))


def test_matrix_file_input(capsys, tmp_path):
    u = named_gate("iswap")
    doc = {"matrix": [[[z.real, z.imag] for z in row] for row in u]}
    path = tmp_path / "iswap.json"
    path.write_text(json.dumps(doc))
    out = run_json(capsys, "invariants", str(path))
    assert_allclose(out["g2"], -1.0, atol=1e-10)


def test_rejects_nonunitary_file(capsys, tmp_path):
    doc = {"matrix": [[[2.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "invariants", str(path))
    assert code == 1
    assert json.loads(err)["error"]["type"] == "NotUnitaryError"


def test_rejects_nan_file(capsys, tmp_path):
    u = named_gate("cnot")
    doc = {"matrix": [[[z.real, z.imag] for z in row] for row in u]}
    doc["matrix"][0][0] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # json writes the NaN literal, and reads it back
    code, out, err = run(capsys, "coords", str(path))
    assert code == 1
    assert json.loads(err)["error"]["type"] == "NotUnitaryError"


def _cnot_file_with(entry) -> bytes:
    """A CNOT gate file with ``entry`` in place of its first pair."""
    matrix = [[[z.real, z.imag] for z in row] for row in named_gate("cnot")]
    matrix[0][0] = entry
    return json.dumps({"matrix": matrix}).encode()


# The last five read as a gate, or escaped as a raw traceback, before
# load_gate parsed the matrix with the library's one parser.
@pytest.mark.parametrize(
    "content, error, message",
    [
        (b'{"matrix": [[', "InvalidInputError", "is not valid JSON"),
        (b'{"gate": "cnot"}', "InvalidInputError", "needs a 'matrix' field"),
        (b'{"matrix": [[1, 0], [0, 1]]}', "InvalidInputError", "must be [re, im] pairs"),
        (b'{"matrix": [[[1]]]}', "InvalidInputError", "must be [re, im] pairs"),
        (_cnot_file_with([True, False]), "NotUnitaryError", "got a bool"),
        (_cnot_file_with([1, 0, 7]), "InvalidInputError", "must be [re, im] pairs"),
        (_cnot_file_with({"re": 1}), "InvalidInputError", "must be [re, im] pairs"),
        (_cnot_file_with(["1", "0"]), "NotUnitaryError", "must hold real numbers"),
        (b'{"matrix": "\xff"}', "InvalidInputError", "is not valid JSON"),
    ],
    ids=[
        "invalid json",
        "no matrix field",
        "bare numbers",
        "short pair",
        "bool pair",
        "third component",
        "object entry",
        "text pair",
        "not utf-8",
    ],
)
def test_rejects_a_malformed_gate_file(capsys, tmp_path, content, error, message):
    path = tmp_path / "gate.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "coords", str(path))
    assert code == 1 and out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == error and message in payload["message"]


def test_unknown_gate_name(capsys):
    code, out, err = run(capsys, "invariants", "frobnicator")
    assert code == 1
    payload = json.loads(err)["error"]
    assert "UnknownGate" in payload["message"]


def test_coords_of_a_negative_cu_angle(capsys):
    doc = run_json(capsys, "coords", "cu(0.3,0,-0.2)")
    expected = gate_coords(controlled_gate([0.3, 0.0, -0.2]))
    assert_allclose(doc["c"], expected, atol=1e-12)


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.VerificationError, 2),
        (errors.ConvergenceError, 2),
        (errors.InvalidInputError, 1),
        (errors.NotUnitaryError, 1),
        (errors.DegenerateHamiltonianError, 1),
    ],
)
def test_exit_code_by_error_class(capsys, monkeypatch, error, code):
    def fail(gate):
        raise error("boom")

    monkeypatch.setattr(cli, "gate_coords", fail)
    got, out, err = run(capsys, "coords", "cnot")
    assert got == code and out == ""
    assert json.loads(err) == {"error": {"type": error.__name__, "message": "boom"}}
