"""Synthesis and NMC call scipy's compiled IIR cores directly: the cores, and
their public-function fallbacks, give the bits of `lfilter` and `sosfilt`."""

import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import butter, lfilter, sosfilt

from tvasr import features, synth

SRC = Path(synth.__file__).parent
RNG = np.random.default_rng(25)

LINEAR_FILTERS = [synth._linear_filter, synth._public_linear_filter]
SOS_FILTERS = [features._sosfilt, features._public_sosfilt]


def resonator_coefficients():
    r, cos_t = np.exp(-np.pi * 130.0 / 16000), np.cos(RNG.uniform(0.1, 1.5))
    return (np.array([1.0 - 2.0 * r * cos_t + r * r]),
            np.array([1.0, -2.0 * r * cos_t, r * r]))


def smoothing_coefficients():
    alpha = np.exp(-0.010 / 0.040)
    return np.array([1.0 - alpha]), np.array([1.0, -alpha])


@pytest.mark.parametrize("linear_filter", LINEAR_FILTERS)
@pytest.mark.parametrize("coefficients", [resonator_coefficients,
                                          smoothing_coefficients])
def test_linear_filter_matches_lfilter_over_chained_frames(linear_filter,
                                                           coefficients):
    x = RNG.normal(size=1000)
    zi = np.full(len(coefficients()[1]) - 1, 0.3)
    zi_ref = zi.copy()
    for start in range(0, len(x), 160):
        b, a = coefficients()  # new coefficients every frame, as synthesis
        frame = x[start:start + 160]
        y, zi = linear_filter(b, a, frame, -1, zi)
        y_ref, zi_ref = lfilter(b, a, frame, zi=zi_ref)
        assert np.array_equal(y, y_ref)
        assert np.array_equal(zi, zi_ref)


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


def test_private_scipy_imports_are_the_two_cores_with_fallbacks():
    allowed = {("synth.py", "scipy.signal._sigtools", "_linear_filter"):
               "lfilter",
               ("features.py", "scipy.signal._sosfilt", "_sosfilt"):
               "sosfilt"}
    seen = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for module, name, node in private_scipy_imports(tree):
            key = (path.name, module, name)
            assert key in allowed, f"{path.name}:{node.lineno}: {module} {name}"
            fallback = fallback_of(tree, node, name)
            assert fallback is not None, f"{key} has no ImportError fallback"
            calls = {call.func.id for call in ast.walk(fallback)
                     if isinstance(call, ast.Call)
                     and isinstance(call.func, ast.Name)}
            assert allowed[key] in calls, f"{fallback.name} does not call " \
                f"the public {allowed[key]}"
            seen.add(key)
    assert seen == set(allowed)
