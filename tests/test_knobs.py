"""The library's bounds are constants; a defaulted parameter is a knob some
caller sets.

Every public function of the computing modules is scanned with
``inspect.signature``, and its defaulted parameters must be exactly those
pinned in ``KNOBS``, each with the caller that sets it.  A tolerance that
no caller sets is a module constant beside the check it bounds, so no call
can loosen the check.  A new knob needs a line here naming its caller.
"""

import inspect
import types

from weylgate import cartan, chamber, entangler, hamflow, invariants, kak, linalg, synth

MODULES = (linalg, cartan, invariants, chamber, kak, entangler, hamflow, synth)

# (module, function, parameter) -> who sets it, or what it is.
KNOBS = {
    ("linalg", "expm_i_hermitian", "t"): "the evolution time: physics, not a bound",
    ("hamflow", "exchange_coords", "jxy"): "a coupling: physics, not a bound",
    ("hamflow", "exchange_coords", "jyx"): "a coupling: physics, not a bound",
    ("chamber", "in_chamber", "tol"): "tests/test_chamber.py sets 1e-9 and 1e-7",
    ("invariants", "locally_equivalent", "tol"): "tests/test_synth.py sets 1e-9",
    ("hamflow", "josephson_cnot_min_time", "e_l"): "the CLI's --e-l",
}


def _knobs(modules) -> set[tuple[str, str, str]]:
    """(module, function, parameter) for each defaulted parameter of each
    public function that a module of ``modules`` defines."""
    found = set()
    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            for param in inspect.signature(fn).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    found.add((short, name, param.name))
    return found


def test_checker_finds_defaulted_parameters():
    module = types.ModuleType("pkg.mod")
    source = (
        "from functools import wraps\n"
        "from inspect import signature\n"  # imported: defined elsewhere
        "def wrap(fn):\n"
        "    @wraps(fn)\n"
        "    def entry(*args, **kwargs):\n"
        "        return fn(*args, **kwargs)\n"
        "    return entry\n"
        "@wrap\n"
        "def wrapped(x, tol=1e-9):\n"
        "    pass\n"
        "def plain(x, *, n=4):\n"
        "    pass\n"
        "def _private(x, tol=1.0):\n"
        "    pass\n"
        "class Spec:\n"
        "    def method(self, k=1):\n"
        "        pass\n"
    )
    exec(source, module.__dict__)
    assert _knobs([module]) == {("mod", "wrapped", "tol"), ("mod", "plain", "n")}


def test_every_knob_has_a_caller():
    assert _knobs(MODULES) == set(KNOBS)
