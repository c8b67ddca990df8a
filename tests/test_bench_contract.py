"""What the benchmark under ``bench/`` needs from the package.

The benchmark wraps package functions by name, builds the model config from
its fixture and hashes tensor buffers; a refactor that breaks any of these
would otherwise only show when the benchmark runs. These tests read
``bench/`` and import nothing from it but ``tracer.py``'s table.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from hintasr.data import ManifestEntry, SynthConfig, Vocab, features_for_entry
from hintasr.model import ModelConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracer_table():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


@pytest.mark.parametrize("module,name", _tracer_table())
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


def test_fixture_model_config_constructs():
    fixture = json.loads((BENCH / "fixture" / "fixture.json").read_text(encoding="utf-8"))
    assert ModelConfig(**fixture["model"]).encoder_dim == fixture["model"]["encoder_dim"]


def test_tensors_expose_shaped_array_for_hashing():
    fixture = json.loads((BENCH / "fixture" / "fixture.json").read_text(encoding="utf-8"))
    synth = SynthConfig(**fixture["synth"])
    feats = features_for_entry(ManifestEntry("u0", "bani sode", seed=3), Vocab.default(), synth)
    arr = feats.array
    assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
    assert arr.shape == feats.shape and arr.ndim == 2 and arr.shape[1] == synth.feature_dim
    assert arr.tobytes() == feats.numpy().tobytes()
