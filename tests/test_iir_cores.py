"""Every IIR filter of the program (synthesis, TV smoothing, NMC) calls
scipy's compiled sosfilt core directly: the core, and its public-function
fallback, give the bits of `sosfilt`."""

import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import butter, sosfilt

from tvasr import synth

SRC = Path(synth.__file__).parent
RNG = np.random.default_rng(25)

SOS_FILTERS = [synth._sosfilt, synth._public_sosfilt]


def resonator_cascade():
    """Three two-pole resonator sections, [gain, 0, 0, 1, a1, r^2]."""
    r = np.exp(-np.pi * np.array([90.0, 130.0, 180.0]) / 16000)
    cos_t = np.cos(RNG.uniform(0.1, 1.5, size=3))
    sos = np.zeros((3, 6))
    sos[:, 0] = 1.0 - 2.0 * r * cos_t + r * r
    sos[:, 3], sos[:, 4], sos[:, 5] = 1.0, -2.0 * r * cos_t, r * r
    return sos


@pytest.mark.parametrize("sos_filter", SOS_FILTERS)
def test_sosfilt_over_chained_frames_of_a_cascade(sos_filter):
    x = RNG.normal(size=1000)
    block = x[None, :].copy()
    zi = np.full((1, 3, 2), 0.3)
    zi_ref = zi[0].copy()
    for start in range(0, len(x), 160):
        sos = resonator_cascade()  # new coefficients every frame, as synthesis
        sos_filter(sos, block[:, start:start + 160], zi)
        y_ref, zi_ref = sosfilt(sos, x[start:start + 160], zi=zi_ref)
        assert np.array_equal(block[0, start:start + 160], y_ref)
        assert np.array_equal(zi[0], zi_ref)


def band_block():
    x = RNG.normal(size=(5, 800))
    return butter(2, [0.1, 0.3], btype="band", output="sos"), x


@pytest.mark.parametrize("sos_filter", SOS_FILTERS)
def test_sosfilt_in_place_on_a_row_view(sos_filter):
    sos, block = band_block()
    expected = block.copy()
    expected[2], zf = sosfilt(sos, block[2], zi=np.zeros((len(sos), 2)))
    zi = np.zeros((1, len(sos), 2))
    sos_filter(sos, block[2:3], zi)
    assert np.array_equal(block, expected)
    assert np.array_equal(zi[0], zf)


@pytest.mark.parametrize("sos_filter", SOS_FILTERS)
def test_sosfilt_in_place_on_a_whole_block(sos_filter):
    sos = butter(2, 0.004, btype="low", output="sos")
    block = RNG.normal(size=(5, 800))
    zi_start = RNG.normal(size=(len(block), len(sos), 2))
    expected, zf = sosfilt(sos, block, axis=-1,
                           zi=np.moveaxis(zi_start, 1, 0))
    zi = zi_start.copy()
    sos_filter(sos, block, zi)
    assert np.array_equal(block, expected)
    assert np.array_equal(zi, np.moveaxis(zf, 0, 1))


def private_scipy_imports(tree):
    """(module, name, node) of each import of an underscore-named scipy
    module or name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "scipy":
            private_module = any(part.startswith("_")
                                 for part in node.module.split("."))
            found += [(node.module, alias.name, node) for alias in node.names
                      if private_module or alias.name.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None, node) for alias in node.names
                      if alias.name.split(".")[0] == "scipy"
                      and "._" in alias.name]
    return found


def fallback_of(tree, import_node, name):
    """The function that the ImportError handler around `import_node`
    binds to `name`, or None."""
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and import_node in node.body:
            for handler in node.handlers:
                if not (isinstance(handler.type, ast.Name)
                        and handler.type.id == "ImportError"):
                    continue
                for stmt in handler.body:
                    if isinstance(stmt, ast.Assign) \
                            and [t.id for t in stmt.targets] == [name] \
                            and isinstance(stmt.value, ast.Name):
                        return functions.get(stmt.value.id)
    return None


def test_the_one_private_scipy_import_is_the_sosfilt_core_with_fallback():
    allowed = {("synth.py", "scipy.signal._sosfilt", "_sosfilt"): "sosfilt"}
    seen = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for module, name, node in private_scipy_imports(tree):
            key = (path.name, module, name)
            assert key in allowed, f"{path.name}:{node.lineno}: {module} {name}"
            assert key not in seen, f"{path.name}:{node.lineno}: a second import"
            fallback = fallback_of(tree, node, name)
            assert fallback is not None, f"{key} has no ImportError fallback"
            calls = {call.func.id for call in ast.walk(fallback)
                     if isinstance(call, ast.Call)
                     and isinstance(call.func, ast.Name)}
            assert allowed[key] in calls, f"{fallback.name} does not call " \
                f"the public {allowed[key]}"
            seen.add(key)
    assert seen == set(allowed)
