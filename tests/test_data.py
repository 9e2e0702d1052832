"""Dataset synthesis, manifest validation, and loading."""

import hashlib
import json
import math
import os
import re

import numpy as np
import pytest

from spikefusion import data as data_module
from spikefusion.config import RunConfig
from spikefusion.data import (
    LATENT_DIM,
    load_manifest,
    split_indices,
    synth_dataset,
    train_val_split,
)
from spikefusion.errors import UsageError
from spikefusion.model import RetrievalModel
from spikefusion.tensor import Tensor
from spikefusion.train import evaluate_recall


def make(tmp_path, name="data", **kwargs):
    args = dict(seed=7, pairs=12, n_regions=4, n_words=4, region_width=10,
                word_width=8, noise=0.1)
    args.update(kwargs)
    return synth_dataset(tmp_path / name, **args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestSynth:
    def test_same_seed_byte_identical(self, tmp_path):
        p1 = make(tmp_path, "a")
        p2 = make(tmp_path, "b")
        for entry in read_json(p1)["entries"]:
            with open(os.path.join(tmp_path / "a", entry["regions"]), "rb") as f1, \
                 open(os.path.join(tmp_path / "b", entry["regions"]), "rb") as f2:
                assert f1.read() == f2.read()
        assert read_json(p1)["entries"] == read_json(p2)["entries"]

    def test_written_bytes_match_the_golden(self, tmp_path):
        # sha256 of the manifest, and of every record read in entry order as
        # regions then words, for make()'s arguments
        path = make(tmp_path)
        with open(path, "rb") as fh:
            manifest = fh.read()
        assert hashlib.sha256(manifest).hexdigest() == (
            "891f7156a2ceb1f7eb34790dc60655e837729240337096bb42a7dd15210b6915")
        records = hashlib.sha256()
        for entry in json.loads(manifest)["entries"]:
            for key in ("regions", "words"):
                with open(os.path.join(tmp_path / "data", entry[key]),
                          "rb") as fh:
                    records.update(fh.read())
        assert records.hexdigest() == (
            "020ad8f606e3a2db6e1bac9eee15ca765c6b83a480b08ffe2ed33645e2836c22")

    def test_different_seed_differs(self, tmp_path):
        d1 = load_manifest(make(tmp_path, "a", seed=1))
        d2 = load_manifest(make(tmp_path, "b", seed=2))
        assert not np.array_equal(d1.regions, d2.regions)

    def test_noise_free_pairs_share_a_code(self, tmp_path):
        # construction oracle: replay the generator's draws and confirm both
        # modalities are exact projections of one per-pair code (no noise)
        path = make(tmp_path, noise=0.0, seed=7)
        data = load_manifest(path)
        rng = np.random.default_rng(7)
        codes = rng.standard_normal((12, LATENT_DIM))
        scale = 1.0 / np.sqrt(LATENT_DIM)
        region_maps = rng.standard_normal((4, LATENT_DIM, 10)) * scale
        word_maps = rng.standard_normal((4, LATENT_DIM, 8)) * scale
        expected_regions = np.einsum("pz,kzd->pkd", codes,
                                     region_maps).astype(np.float32)
        expected_words = np.einsum("pz,kzd->pkd", codes,
                                   word_maps).astype(np.float32)
        np.testing.assert_array_equal(data.regions, expected_regions)
        np.testing.assert_array_equal(data.words, expected_words)
        # cross-pair codes are independent draws, not copies
        assert not np.allclose(codes[0], codes[1])

    def test_too_few_pairs_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            make(tmp_path, pairs=1)

    def test_negative_noise_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            make(tmp_path, noise=-0.5)

    @pytest.mark.parametrize("name", ["n_regions", "n_words", "region_width",
                                      "word_width"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_shape_below_one_rejected(self, tmp_path, name, value):
        # each would write a dataset load_manifest rejects, or crash numpy
        with pytest.raises(UsageError, match=f"{name} must be >= 1"):
            make(tmp_path, **{name: value})
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -math.inf])
    def test_non_finite_noise_rejected(self, tmp_path, noise):
        with pytest.raises(UsageError, match="noise"):
            make(tmp_path, noise=noise)


class TestLoad:
    def test_round_trip_shapes(self, tmp_path):
        data = load_manifest(make(tmp_path))
        assert data.regions.shape == (12, 4, 10)
        assert data.words.shape == (12, 4, 8)
        assert data.regions.dtype == np.float32

    def test_byte_length_mismatch_rejected(self, tmp_path):
        path = make(tmp_path)
        manifest = read_json(path)
        victim = os.path.join(os.path.dirname(path),
                              manifest["entries"][0]["regions"])
        with open(victim, "ab") as fh:
            fh.write(b"\x00\x00\x00\x00")
        with pytest.raises(UsageError, match="bytes"):
            load_manifest(path)

    def test_missing_file_rejected(self, tmp_path):
        path = make(tmp_path)
        manifest = read_json(path)
        os.remove(os.path.join(os.path.dirname(path),
                               manifest["entries"][1]["words"]))
        with pytest.raises(UsageError, match="missing"):
            load_manifest(path)

    def test_entry_count_mismatch_rejected(self, tmp_path):
        path = make(tmp_path)
        manifest = read_json(path)
        manifest["pairs"] = 99
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(UsageError):
            load_manifest(path)

    def test_records_land_in_their_rows(self, tmp_path):
        path = make(tmp_path)
        data = load_manifest(path)
        for p, entry in enumerate(read_json(path)["entries"]):
            for key in ("regions", "words"):
                with open(os.path.join(tmp_path / "data", entry[key]),
                          "rb") as fh:
                    assert getattr(data, key)[p].tobytes() == fh.read()

    def test_short_read_rejected(self, tmp_path, monkeypatch):
        # a record that is shorter than its size check promised (it shrank
        # in between): the read comes up short and the error names it
        path = make(tmp_path)
        victim = read_json(path)["entries"][2]["words"]
        with open(os.path.join(tmp_path / "data", victim), "r+b") as fh:
            fh.truncate(8)
        monkeypatch.setattr(data_module, "_check_record", lambda *args: None)
        with pytest.raises(UsageError, match=re.escape(
                f"record {victim!r} gave 8 of its 128 bytes")):
            load_manifest(path)

    def test_directory_path_accepted(self, tmp_path):
        make(tmp_path)
        data = load_manifest(tmp_path / "data")
        assert data.pairs == 12


class TestSplit:
    def test_split_is_seed_stable(self, tmp_path):
        data = load_manifest(make(tmp_path, pairs=20))
        t1, v1 = train_val_split(data, 0.1, seed=5)
        t2, v2 = train_val_split(data, 0.1, seed=5)
        assert np.array_equal(t1.regions, t2.regions)
        assert np.array_equal(v1.words, v2.words)
        assert t1.pairs == 18 and v1.pairs == 2

    def test_split_indices_select_the_split_rows(self, tmp_path):
        data = load_manifest(make(tmp_path, pairs=20))
        train_idx, val_idx = split_indices(data.pairs, 0.25, seed=3)
        # the first 5 of default_rng(3).permutation(20), sorted
        assert val_idx.tolist() == [3, 8, 12, 16, 18]
        assert train_idx.tolist() == sorted(set(range(20)) - set(val_idx))
        for idx, part in zip((train_idx, val_idx),
                             train_val_split(data, 0.25, seed=3)):
            assert data.regions[idx].tobytes() == part.regions.tobytes()
            assert data.words[idx].tobytes() == part.words.tobytes()


def test_fresh_model_scores_at_chance(tmp_path):
    """An untrained model ranks at chance level on synthetic pairs."""
    path = synth_dataset(tmp_path / "chance", seed=3, pairs=200, n_regions=8,
                         n_words=8, region_width=24, word_width=20, noise=0.1)
    data = load_manifest(path)
    cfg = RunConfig(d=16, t=2, batch=16, heads=2, seed=11)
    model = RetrievalModel(cfg, 24, 20, 8, 8)
    model.calibrate(Tensor(data.regions[:32]), Tensor(data.words[:32]))
    metrics = evaluate_recall(model, data)
    # chance R@1 is 1/200; allow 3/200 plus a 3-sigma binomial margin
    sigma = 100.0 * np.sqrt((1 / 200) * (199 / 200) / 200)
    bound = 100.0 * 3 / 200 + 3 * sigma
    assert metrics["i2t_r@1"] <= bound
    assert metrics["t2i_r@1"] <= bound
