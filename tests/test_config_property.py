"""Property test of config loading: any document over DEFAULT_CONFIG's keys
either loads into a config that meets every range rule or is rejected with
FormatError or ValueError, never with another exception."""

import argparse
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from curverope.cli import _RANGES, DEFAULT_CONFIG, _load_config, config_hash  # noqa: E402

SCALAR = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
LEAF = st.recursive(
    SCALAR,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _like(default):
    """Values of the default's own type, so that range rules are reached."""
    if isinstance(default, float):
        return st.floats() | st.integers(-3, 3)
    if isinstance(default, int):
        return st.integers(-3, 10**4)
    if isinstance(default, list):
        return st.lists(st.integers(2, 200), max_size=3)
    return SCALAR


def _document(schema: dict):
    """Objects over any subset of schema's keys, sometimes with an unknown
    key; a dict default holds a nested document or a random leaf."""
    entries = {
        key: (_document(d) | LEAF) if isinstance(d, dict) else (_like(d) | LEAF)
        for key, d in schema.items()
    }
    known = st.fixed_dictionaries({}, optional=entries)
    unknown = st.dictionaries(st.text(max_size=6), LEAF, max_size=1)
    return known | st.builds(lambda doc, extra: {**doc, **extra}, known, unknown)


def _json(strategy):
    return strategy.map(lambda doc: json.dumps(doc).encode())


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    content=_json(_document(DEFAULT_CONFIG)) | _json(LEAF) | st.binary(max_size=32),
    seed=st.none() | st.integers(-5, 5),
    k=st.none() | st.integers(-2, 200),
)
def test_load_config_returns_a_checked_config_or_a_validation_error(tmp_path, content, seed, k):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    try:
        cfg = _load_config(argparse.Namespace(config=str(path), seed=seed, k=k))
    except ValueError:  # FormatError is a ValueError
        return
    assert set(cfg) == set(DEFAULT_CONFIG)
    for name, (holds, _) in _RANGES.items():
        section, _, key = name.rpartition(".")
        assert holds((cfg[section] if section else cfg)[key]), name
    config_hash(cfg)
