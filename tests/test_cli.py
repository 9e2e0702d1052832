"""End-to-end command-line workflows."""

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spikefusion.checkpoint import save_checkpoint
from spikefusion.cli import main
from spikefusion.config import RunConfig
from spikefusion.data import synth_dataset
from spikefusion.model import RetrievalModel

# tiny sca checkpoint (d=8, region/word widths 6/5, 4 tokens per side)
FIXTURE = Path(__file__).parent / "golden" / "sca_linear_bn_d8.ckpt"
FIXTURE_HEADER, FIXTURE_PAYLOAD = FIXTURE.read_bytes().split(b"\n---\n", 1)
HEADER_LINES = FIXTURE_HEADER.decode("utf-8").splitlines()

CONFIG_TEXT = """
# desk-scale toy setup
d = 16
t = 2
heads = 2
batch = 8
epochs = 12
lr_encoder = 4e-3
lr_fusion = 4e-3
temperature = 0.05
comb_tau = 1.0
lr_decay_epochs = 4
val_fraction = 0.25
seed = 3
"""


@pytest.fixture()
def workspace(tmp_path, capsys):
    data_dir = tmp_path / "data"
    rc = main(["synth-data", "--out", str(data_dir), "--pairs", "12",
               "--regions", "4", "--words", "4", "--region-width", "12",
               "--word-width", "10", "--noise", "0.05", "--seed", "9"])
    assert rc == 0
    config_path = tmp_path / "run.cfg"
    config_path.write_text(CONFIG_TEXT)
    capsys.readouterr()
    return tmp_path, data_dir, config_path


def test_synth_then_train_then_eval(workspace, capsys):
    tmp_path, data_dir, config_path = workspace
    run_dir = tmp_path / "run"
    rc = main(["train", "--data", str(data_dir), "--config", str(config_path),
               "--out", str(run_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "step=1 " in out and "total=" in out
    ckpt = run_dir / "best.ckpt"
    assert ckpt.exists()
    assert (run_dir / "history.csv").exists()

    rc = main(["eval", "--data", str(data_dir), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "metrics.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "r_sum" in out            # aligned table header
    assert "R@Sum" in out
    csv = (tmp_path / "metrics.csv").read_text()
    assert csv.startswith("run,i2t_r@1")


def test_eval_on_saturated_toy_prints_600(tmp_path, capsys):
    """A noise-free toy run overfits to perfect recall: R@Sum 600."""
    data_dir = tmp_path / "data"
    main(["synth-data", "--out", str(data_dir), "--pairs", "8",
          "--regions", "4", "--words", "4", "--region-width", "12",
          "--word-width", "10", "--noise", "0.0", "--seed", "2"])
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        "d = 32\nt = 2\nheads = 2\nbatch = 4\nepochs = 50\nfusion = none\n"
        "lr_encoder = 4e-3\ntemperature = 0.05\nlr_decay_epochs = 12\n"
        "val_fraction = 0.0\nseed = 3\n")
    run_dir = tmp_path / "run"
    rc = main(["train", "--data", str(data_dir), "--config", str(config_path),
               "--out", str(run_dir)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["eval", "--data", str(data_dir),
               "--checkpoint", str(run_dir / "best.ckpt")])
    assert rc == 0
    assert "R@Sum 600" in capsys.readouterr().out


def test_energy_report_command(workspace, capsys):
    tmp_path, data_dir, config_path = workspace
    run_dir = tmp_path / "run"
    main(["train", "--data", str(data_dir), "--config", str(config_path),
          "--out", str(run_dir)])
    capsys.readouterr()
    rc = main(["energy", "--data", str(data_dir),
               "--checkpoint", str(run_dir / "best.ckpt"),
               "--batch", "8", "--out", str(tmp_path / "energy.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gate_multiply" in out
    assert "ac_fraction=" in out
    assert "model parameters:" in out
    assert (tmp_path / "energy.txt").read_text().startswith("# energy report")


def test_ablate_emits_one_row_per_value(workspace, capsys):
    tmp_path, data_dir, config_path = workspace
    fast_cfg = tmp_path / "fast.cfg"
    fast_cfg.write_text(CONFIG_TEXT + "\nepochs = 2\n")
    rc = main(["ablate", "--data", str(data_dir), "--config", str(fast_cfg),
               "--axis", "time-steps", "--values", "1,2",
               "--out", str(tmp_path / "ablate.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l and l.split()[0] in ("1", "2")]
    assert len(rows) == 2
    csv_rows = (tmp_path / "ablate.csv").read_text().strip().splitlines()
    assert len(csv_rows) == 3  # header + one row per value

    rc = main(["ablate", "--data", str(data_dir), "--config", str(fast_cfg),
               "--axis", "alignment", "--values", "biha,lse"])
    assert rc == 0


@pytest.mark.parametrize("values", [",", " , "])
def test_ablate_rejects_empty_values(workspace, capsys, values):
    tmp_path, data_dir, config_path = workspace
    rc = main(["ablate", "--data", str(data_dir), "--config", str(config_path),
               "--axis", "time-steps", "--values", values])
    captured = capsys.readouterr()
    assert_one_line_error(rc, captured.err)
    assert "--values" in captured.err
    assert captured.out == ""


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["retrieve-everything"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_validation_failure_is_single_line_diagnostic(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nowhere"), "--config",
               str(tmp_path / "missing.cfg")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_bad_config_value_fails_cleanly(tmp_path, capsys):
    data_dir = tmp_path / "data"
    main(["synth-data", "--out", str(data_dir), "--pairs", "4",
          "--regions", "2", "--words", "2", "--region-width", "6",
          "--word-width", "6", "--noise", "0.1"])
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("alignment = cosine\n")
    rc = main(["train", "--data", str(data_dir), "--config", str(bad_cfg)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_synth_data_requires_out(capsys):
    with pytest.raises(SystemExit):
        main(["synth-data", "--pairs", "4"])


def test_synth_data_rejects_zero_regions(tmp_path):
    # a zero token count would write a manifest that eval rejects
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(["synth-data", "--out", str(tmp_path / "data"),
                   "--pairs", "4", "--regions", "0"])
    assert_one_line_error(rc, err.getvalue())
    assert "n_regions" in err.getvalue()
    assert not (tmp_path / "data").exists()


@pytest.fixture(scope="module")
def fixture_workspace(tmp_path_factory):
    """A dataset matching the fixture checkpoint's widths and token counts."""
    root = tmp_path_factory.mktemp("malformed")
    synth_dataset(root / "data", seed=1, pairs=6, n_regions=4, n_words=4,
                  region_width=6, word_width=5, noise=0.1)
    return root


def with_header(header_lines):
    """The fixture checkpoint with its header replaced."""
    return ("\n".join(header_lines).encode("utf-8") + b"\n---\n"
            + FIXTURE_PAYLOAD)


def eval_checkpoint(root, blob):
    path = root / "under_test.ckpt"
    path.write_bytes(blob)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(["eval", "--data", str(root / "data"),
                   "--checkpoint", str(path)])
    return rc, err.getvalue()


def assert_one_line_error(rc, err):
    assert rc == 1
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1, err


def test_fixture_checkpoint_evaluates(fixture_workspace):
    assert eval_checkpoint(fixture_workspace, with_header(HEADER_LINES)) \
        == (0, "")


def test_eval_rejects_truncated_header(fixture_workspace):
    rc, err = eval_checkpoint(fixture_workspace,
                              b"spikefusion-checkpoint v1\nepoch\n---\n")
    assert_one_line_error(rc, err)
    assert "malformed checkpoint header" in err


def test_eval_rejects_checkpoint_missing_a_parameter(fixture_workspace):
    pos = next(i for i, l in enumerate(HEADER_LINES)
               if l.startswith("arrays "))
    n_arrays = int(HEADER_LINES[pos].split()[1])
    param = next(i for i, l in enumerate(HEADER_LINES)
                 if i > pos and not l.startswith("buffer/"))
    lines = HEADER_LINES[:pos] + [f"arrays {n_arrays - 1}"] \
        + HEADER_LINES[pos + 1:param] + HEADER_LINES[param + 1:]
    rc, err = eval_checkpoint(fixture_workspace, with_header(lines))
    assert_one_line_error(rc, err)
    assert "checkpoint missing parameter" in err


def test_eval_rejects_checkpoint_saved_before_calibration(fixture_workspace):
    model = RetrievalModel(RunConfig(d=8, heads=2, fusion="sca"), 6, 5)
    path = save_checkpoint(fixture_workspace / "fresh.ckpt", model)
    rc, err = eval_checkpoint(fixture_workspace, path.read_bytes())
    assert_one_line_error(rc, err)
    assert "running stats" in err


@pytest.mark.parametrize("shape", ["1", "scalar"])
def test_eval_rejects_buffer_of_wrong_shape(fixture_workspace, shape):
    """A running variance of one value would broadcast over every channel;
    each index line keeps its offset and now declares 4 bytes."""
    lines = []
    for line in HEADER_LINES:
        name, *fields = line.split(" ")
        if name.endswith("/running_var"):
            line = f"{name} {shape} {fields[1]} 4"
        lines.append(line)
    rc, err = eval_checkpoint(fixture_workspace, with_header(lines))
    assert_one_line_error(rc, err)
    assert "running_var" in err and "expected (8,)" in err


# Every mutation below makes the checkpoint invalid.  A cut drops index lines
# that the array count declares.  No valid header line is built from this
# alphabet alone, so a replaced line breaks the header or the config, or
# drops an array that restoring needs (every fixture array is needed: a
# parameter, or half of a running-stats pair).
header_mutations = st.one_of(
    st.integers(0, len(HEADER_LINES) - 1).map(lambda k: HEADER_LINES[:k]),
    st.tuples(st.integers(0, len(HEADER_LINES) - 1),
              st.text(alphabet=" ab019=,.-", min_size=1).filter(str.strip))
    .map(lambda iv: HEADER_LINES[:iv[0]] + [iv[1]]
         + HEADER_LINES[iv[0] + 1:]),
)


@settings(max_examples=60, deadline=None, database=None)
@given(lines=header_mutations)
def test_mutated_checkpoint_header_is_one_line_error(fixture_workspace,
                                                     lines):
    assert_one_line_error(*eval_checkpoint(fixture_workspace,
                                           with_header(lines)))


@pytest.mark.parametrize("batch", ["0", "-3"])
def test_energy_rejects_batch_below_one(fixture_workspace, batch):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(["energy", "--data", str(fixture_workspace / "data"),
                   "--checkpoint", str(FIXTURE), "--batch", batch])
    assert_one_line_error(rc, err.getvalue())
    assert "--batch" in err.getvalue()


@pytest.mark.parametrize("line", ["tau = nan", "temperature = inf",
                                  "comb_tau = 0.5", "v_th = 0.005",
                                  "v_th = 1e39"])
def test_train_rejects_out_of_range_config(workspace, line):
    tmp_path, data_dir, config_path = workspace
    config_path.write_text(CONFIG_TEXT + line + "\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(["train", "--data", str(data_dir), "--config",
                   str(config_path), "--out", str(tmp_path / "run")])
    assert_one_line_error(rc, err.getvalue())
    assert not (tmp_path / "run").exists()


# Every mutation below makes the fixture dataset's manifest invalid: a cut
# text is not JSON; a changed count or shape no longer matches the entries
# or the record sizes; a replaced entry or file name is not a pair of
# existing records (no file name can be built from the text alphabet).
MANIFEST_FIELDS = ("version", "pairs", "n_regions", "n_words",
                   "region_width", "word_width", "entries")
json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 1000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet=" ab019=,.-", max_size=6),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["regions", "words"]),
                    st.text(alphabet="ab01.", max_size=4), max_size=2),
)
manifest_mutations = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 10**6), st.none()),
    st.tuples(st.just("drop"), st.sampled_from(MANIFEST_FIELDS), st.none()),
    st.tuples(st.just("set"), st.sampled_from(MANIFEST_FIELDS), json_values),
    st.tuples(st.just("entry"), st.integers(0, 5), json_values),
    st.tuples(st.just("file"),
              st.tuples(st.integers(0, 5), st.sampled_from(["regions", "words"])),
              json_values),
)


def mutate_manifest(text, kind, where, value):
    if kind == "cut":  # drop the tail, keeping at most all but the "}\n"
        return text[:where % (len(text.rstrip()) - 1)]
    manifest = json.loads(text)
    if kind == "drop":
        del manifest[where]
    elif kind == "set":
        manifest[where] = value
    elif kind == "entry":
        manifest["entries"][where] = value
    else:
        manifest["entries"][where[0]][where[1]] = value
    return json.dumps(manifest)


@settings(max_examples=120, deadline=None, database=None)
@given(mutation=manifest_mutations)
def test_mutated_manifest_is_one_line_error(fixture_workspace, mutation):
    original = json.loads(
        (fixture_workspace / "data" / "manifest.json").read_text())
    kind, where, value = mutation
    if kind == "set":
        assume(not (type(value) is type(original[where])
                    and value == original[where]))
    data_dir = fixture_workspace / "mutated"
    shutil.rmtree(data_dir, ignore_errors=True)
    shutil.copytree(fixture_workspace / "data", data_dir)
    manifest_path = data_dir / "manifest.json"
    manifest_path.write_text(
        mutate_manifest(manifest_path.read_text(), kind, where, value))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(["eval", "--data", str(data_dir), "--checkpoint",
                   str(FIXTURE)])
    assert_one_line_error(rc, err.getvalue())
