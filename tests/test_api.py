"""Public-name hygiene: every exported name resolves.

The bench tracer wraps the functions a module lists in ``__all__`` and
skips names that do not resolve, so a stale entry would silently drop out
of the trace; the benchmark also calls a few names directly.
"""

import ast
import dataclasses
import importlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import curverope
from curverope.oracle import mc_expected_phasor, random_setup

MODULES = (
    "cli", "camera", "phasor", "rope", "attention", "head", "supervision",
    "teacher_mix", "scene", "oracle", "checks", "trainer", "formats",
)

# Names the benchmark scripts import, its per-layer probes wrap, or the
# tracer test reads. The benchmark also pins one attribute shape: it calls
# oracle.mc_expected_phasor with a SimpleNamespace standing in for
# PhasorSetup, so the estimator may read only cam_q.{fx, fy, width, height,
# xi}, transform.{rotation, translation}, ray.direction, interval.{mu, sigma}
# and omega; the last test below builds that namespace.
BENCHMARK_NAMES = (
    ("attention", "AttentionParams"),
    ("attention", "TokenBatch"),
    ("attention", "attention_forward"),
    ("rope", "make_frequency_plan"),
    ("oracle", "mc_expected_phasor"),
    ("oracle", "random_setup"),
    ("oracle", "analytic_expected_phasor"),
    ("cli", "main"),
    ("cli", "token_paths"),
    ("phasor", "projected_path"),
    ("oracle", "projected_path"),
    ("teacher_mix", "external_override"),
    ("head", "head_forward"),
    ("head", "head_backward"),
    ("formats", "read_rdm1"),
    ("formats", "read_sidecar"),
    ("formats", "load_trajectory"),
    ("formats", "load_head_params"),
)


# Exported names that no library code uses and the benchmark does not name,
# kept on purpose: the writing halves of the RDM1 and trajectory formats,
# which the Hypothesis round trips test against their readers.
FORMAT_WRITERS = (
    ("formats", "write_rdm1"),
    ("formats", "save_trajectory"),
)


def _names_used_in_library():
    """Every identifier the library's code reads: names and attribute names,
    outside import statements, ``__all__`` lists (strings) and def/class
    lines. The package root only re-exports, so it is left out."""
    used = set()
    for path in Path(curverope.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_name_is_used_by_the_library_or_the_benchmark():
    """A name only the tests reach belongs in tests/util.py, not in src/."""
    used = _names_used_in_library()
    allowed = set(BENCHMARK_NAMES) | set(FORMAT_WRITERS)
    unused = [
        (module, name)
        for module in MODULES
        for name in importlib.import_module(f"curverope.{module}").__all__
        if name not in used and (module, name) not in allowed
    ]
    assert unused == []


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"curverope.{module}")
    names = mod.__all__
    assert len(names) == len(set(names)), names
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, missing


def test_package_root_imports_exist():
    tree = ast.parse(Path(curverope.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if not hasattr(curverope, name)] == []


@pytest.mark.parametrize("module, name", BENCHMARK_NAMES)
def test_benchmark_names_exist(module, name):
    assert hasattr(importlib.import_module(f"curverope.{module}"), name)


def test_projected_path_at_package_root():
    assert curverope.projected_path is importlib.import_module("curverope.phasor").projected_path


def test_mc_expected_phasor_reads_only_the_setup_attributes_the_benchmark_builds():
    """A SimpleNamespace setup built as the benchmark builds its own (camera
    fields from a dict, plain rotation and translation arrays, float mu and
    sigma, the ray direction and omega set afterwards) gives the bytes of
    the PhasorSetup it copies, under the same generator state."""
    setup = random_setup(np.random.default_rng(41))
    copy = SimpleNamespace(
        cam_q=SimpleNamespace(**dataclasses.asdict(setup.cam_q)),
        transform=SimpleNamespace(
            rotation=setup.transform.rotation, translation=setup.transform.translation
        ),
        interval=SimpleNamespace(mu=float(setup.interval.mu), sigma=float(setup.interval.sigma)),
    )
    copy.ray = SimpleNamespace(direction=setup.ray.direction)
    copy.omega = float(setup.omega)
    want = mc_expected_phasor(setup, 20000, np.random.default_rng(7))
    assert mc_expected_phasor(copy, 20000, np.random.default_rng(7)).tobytes() == want.tobytes()
