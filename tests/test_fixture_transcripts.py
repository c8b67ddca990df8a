"""Transcript identity against the stored benchmark fixture.

Decodes a fixed slice of the benchmark's utterance pool with its trained
checkpoint, in the dictionary mode (context biasing plus shallow fusion
against one 20-word dictionary) and the hint-free mode, and requires the
exact stored transcripts. A decoder speedup must not change a single one.
The fixture is only read.
"""

import json
from pathlib import Path

import pytest

from hintasr.checkpoint import load_checkpoint
from hintasr.data import (
    ManifestEntry,
    SynthConfig,
    Vocab,
    detokenize,
    features_for_entry,
    read_wordlist,
    tokenize,
)
from hintasr.decode import build_hint_trie, greedy_decode

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture"
N_UTTS = 40


@pytest.fixture(scope="module")
def fixture():
    manifest = json.loads((FIXTURE / "fixture.json").read_text(encoding="utf-8"))
    ref = json.loads((FIXTURE / "decode_ref.json").read_text(encoding="utf-8"))
    synth_kw = dict(manifest["synth"])
    synth_kw["durations"] = tuple(synth_kw["durations"])
    params, cfg, _, _ = load_checkpoint(FIXTURE / "model.scj")
    vocab = Vocab.default()
    hints = [tokenize(w, vocab) for w in read_wordlist(FIXTURE / "dictionary.txt")]
    return params, cfg, vocab, SynthConfig(**synth_kw), hints, ref


@pytest.mark.parametrize("mode", ["dict", "plain"])
def test_transcripts_match_stored_reference(fixture, mode):
    params, cfg, vocab, synth, hints, ref = fixture
    if mode == "dict":
        kw = {"hints": hints, "context_enabled": True, "fusion_enabled": True,
              "lambda_token": ref["lambda_token"],
              "trie": build_hint_trie(hints, ref["lambda_token"])}
    else:
        kw = {"hints": None, "context_enabled": False, "fusion_enabled": False}
    got, want = [], []
    for k, entry_kw in enumerate(ref["pool"][:N_UTTS]):
        feats = features_for_entry(ManifestEntry(**entry_kw), vocab, synth)
        got.append(detokenize(greedy_decode(feats, params, cfg, **kw), vocab))
        want.append(ref["transcripts"][mode][k])
    assert got == want
