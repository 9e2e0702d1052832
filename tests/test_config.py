"""Config parsing, defaults, and validation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikefusion.config import RunConfig, parse_config
from spikefusion.errors import ConfigError
from spikefusion.model import RetrievalModel


class TestDefaults:
    def test_published_operating_point(self):
        cfg = RunConfig()
        assert cfg.d == 1024
        assert cfg.t == 2
        assert cfg.batch == 160
        assert cfg.alpha == 0.1
        assert cfg.heads == 6
        assert cfg.lam == 0.5
        assert cfg.temperature == 0.01
        assert cfg.epochs == 35
        assert cfg.lr_encoder == 5e-4
        assert cfg.lr_fusion == 5e-3
        assert cfg.lr_decay_epochs == 15
        assert cfg.lr_decay_factor == 0.1
        assert cfg.generator == "repeat-ln"
        assert cfg.alignment == "biha"
        assert cfg.fusion == "scca"


class TestParse:
    def test_round_trip(self):
        cfg = RunConfig(d=64, t=3, lam=0.25, fusion="sca", seed=9)
        parsed = parse_config(cfg.to_text())
        assert parsed == cfg

    def test_comments_and_blanks(self):
        cfg = parse_config("""
# architecture
d = 32      # embedding width
t = 2

alignment = vha
lambda = 0.75
""")
        assert cfg.d == 32
        assert cfg.alignment == "vha"
        assert cfg.lam == 0.75

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("dropout = 0.5")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("d = large")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("alignment biha")


class TestValidate:
    @pytest.mark.parametrize("kwargs", [
        dict(alignment="cosine"),
        dict(fusion="distill"),
        dict(generator="poisson-ln"),
        dict(lam=2.0),
        dict(temperature=0.0),
        dict(batch=1),
        dict(alpha=-0.1),
        dict(tau=0.2),
        dict(v_th=0.0, v_reset=0.0),
        dict(epochs=0),
        dict(val_fraction=1.0),
        dict(tau=math.nan),
        dict(v_th=math.nan),
        dict(alpha=math.nan),
        dict(lr_encoder=math.nan),
        dict(surrogate_alpha=math.nan),
        dict(temperature=math.inf),
        dict(comb_tau=0.5),
        dict(comb_tau=math.nan),
        dict(ssa_scale=0.0),
        dict(seed=-1),
        dict(heads=0, fusion="sca"),
        dict(v_th=0.005),  # within the TLSN threshold floor of v_reset
        dict(v_th=1e39),  # finite in float64, overflows the float32 network
        dict(v_th=3e38, v_reset=-3e38),  # each fits float32, the gap does not
    ])
    def test_constraint_violations(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs).validate()

    def test_huge_threshold_builds_a_model(self):
        # the TLSN inverse softplus of a 1000 gap must not overflow
        cfg = RunConfig(d=8, fusion="none", v_th=1000.0).validate()
        tlsn = RetrievalModel(cfg, 6, 5).image.gen.tlsn
        assert float(tlsn.effective_threshold().data) == pytest.approx(1000.0)

    def test_fusion_none_is_allowed(self):
        assert RunConfig(fusion="none").validate().fusion == "none"

    def test_components_match_the_config(self):
        cfg = RunConfig(tau=3.0, comb_tau=1.5, fusion="sca", heads=2, lam=0.25)
        parts = cfg.components()
        assert parts.lif.tau == 3.0 and parts.comb_lif.tau == 1.5
        assert parts.comb_lif.v_th == parts.lif.v_th
        assert parts.fusion.kind == "sca" and parts.fusion.h == 2
        assert parts.loss.lam == 0.25
        assert RunConfig(fusion="none").components().fusion is None
        default = RunConfig().components()
        assert default.comb_lif == default.lif


# Every line of a valid config is a candidate for a bad value.  Whatever the
# edit, reading the config either fails with ConfigError or gives a config
# the model builds from: no range rule is checked only at build time.
BASE_CONFIG = RunConfig(d=8, t=2, heads=2, batch=4, epochs=1, comb_tau=1.5)
BASE_LINES = BASE_CONFIG.to_text().splitlines()
bad_values = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "0", "0.0", "-0", "-1",
                     "-0.5", "-2.5", "1e400", ""]),
    st.text(alphabet=" ab019.-+e_", max_size=6),
)
config_edits = st.lists(
    st.tuples(st.integers(0, len(BASE_LINES) - 1), bad_values),
    min_size=1, max_size=3)


@settings(max_examples=200, deadline=None, database=None)
@given(fusion=st.sampled_from(["none", "scca", "sca", "scsa"]),
       edits=config_edits)
def test_mutated_config_is_rejected_or_builds(fusion, edits):
    lines = [f"fusion = {fusion}" if line.startswith("fusion ") else line
             for line in BASE_LINES]
    for k, value in edits:
        lines[k] = f"{lines[k].split('=')[0].strip()} = {value}"
    try:
        cfg = parse_config("\n".join(lines))
    except ConfigError:
        return
    RetrievalModel(cfg, 6, 5)
