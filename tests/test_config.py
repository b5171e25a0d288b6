"""Unit tests for run configuration, scale defaults, and seed derivation."""

import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtraj.cli import main
from memtraj.config import Config, RUNTIME_ONLY_FIELDS, load_config
from memtraj.errors import ConfigError

from oracles import config_hash


def test_sgd_schedule_reads_the_stage_keys():
    config = Config(epochs_features=5, lr_features=0.125, epochs_addresser=7, lr_addresser=0.5, epochs_fulfillment=3, lr_fulfillment=0.25)
    assert config.sgd_schedule("features") == (5, 0.125)
    assert config.sgd_schedule("addresser") == (7, 0.5)
    assert config.sgd_schedule("fulfillment") == (3, 0.25)


def test_scale_defaults():
    pixel = Config(scale="pixel")
    assert pixel.theta_past == 1.0
    assert pixel.theta_int == 1.0
    assert pixel.n_retrieve == 120
    meter = Config(scale="meter")
    assert meter.theta_past == 0.02
    assert meter.theta_int == 0.02
    assert meter.n_retrieve == 320


def test_explicit_values_beat_scale_defaults():
    config = Config(scale="meter", theta_past=0.5, n_retrieve=40)
    assert config.theta_past == 0.5
    assert config.theta_int == 0.02  # untouched field still follows the scale
    assert config.n_retrieve == 40


def test_label_threshold_default_and_override():
    config = Config(scale="pixel")
    assert config.label_threshold_value() == pytest.approx(5.0 * config.theta_int)
    explicit = Config(scale="pixel", label_threshold=2.5)
    assert explicit.label_threshold_value() == 2.5
    # a default of 5 * theta_int that is 0 or inf is no cutoff; an explicit one still is
    for theta_int in (0.0, math.inf, 1e308):
        with pytest.raises(ConfigError, match="label_threshold.*theta_int"):
            Config(scale="meter", theta_int=theta_int).label_threshold_value()
        assert Config(scale="meter", theta_int=theta_int, label_threshold=0.5).label_threshold_value() == 0.5


def test_validate_rejects_bad_values():
    with pytest.raises(ConfigError, match="scale"):
        Config(scale="furlong").validate()
    with pytest.raises(ConfigError, match="n_predict"):
        Config(scale="pixel", n_retrieve=10, n_predict=20).validate()
    with pytest.raises(ConfigError, match="lr_features"):
        Config(scale="pixel", lr_features=-1.0).validate()
    with pytest.raises(ConfigError, match="decode_mode"):
        Config(scale="pixel", decode_mode="middle").validate()
    with pytest.raises(ConfigError, match="past_len"):
        Config(scale="pixel", past_len=0).validate()
    with pytest.raises(ConfigError, match="key 'seed': must be >= 0, got -1"):
        Config(scale="pixel", seed=-1)
    # a fully-default config is valid
    Config(scale="pixel").validate()


def test_seed_for_is_stable_and_purpose_dependent():
    config = Config(scale="pixel", seed=11)
    a = config.seed_for("features")
    assert a == config.seed_for("features")
    assert a != config.seed_for("fulfillment")
    assert a != Config(scale="pixel", seed=12).seed_for("features")
    assert 0 <= a < 2**63


def test_canonical_text_and_hash():
    a = Config(scale="meter", seed=4)
    b = Config(scale="meter", seed=4)
    assert a.canonical_text() == b.canonical_text()
    assert config_hash(a) == config_hash(b)
    c = Config(scale="meter", seed=5)
    assert config_hash(a) != config_hash(c)
    # text is sorted key = value lines
    lines = a.canonical_text().strip().split("\n")
    assert lines == sorted(lines)
    assert all(" = " in line for line in lines)


def test_stage_hash_ignores_runtime_only_keys():
    base = Config(scale="meter", seed=4)
    # every excluded name must still be a real field, or the set rots silently
    field_names = {f.name for f in fields(Config)}
    assert RUNTIME_ONLY_FIELDS <= field_names
    for name, value in [
        ("decode_mode", "stored"),
        ("snap_destination", True),
        ("out_dir", "elsewhere/run"),
        ("val_manifest", "other/val.txt"),
        ("test_manifest", "other/test.txt"),
    ]:
        changed = replace(base, **{name: value})
        assert changed.stage_hash() == base.stage_hash(), name
        assert config_hash(changed) != config_hash(base), name
    # keys a training stage reads must still invalidate
    for name, value in [("seed", 5), ("batch_size", 64), ("train_manifest", "other/train.txt")]:
        assert replace(base, **{name: value}).stage_hash() != base.stage_hash(), name


def test_file_round_trip(tmp_path):
    config = Config(scale="meter", seed=9, epochs_features=7, lr_addresser=3e-4, out_dir="runs/x")
    path = tmp_path / "run.cfg"
    config.to_file(path)
    loaded = load_config(path)
    assert loaded == config
    assert loaded.label_threshold is None  # None survives the round trip
    assert config_hash(loaded) == config_hash(config)


def test_load_config_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("no_such_key = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="no_such_key"):
        load_config(path)
    # the finetune phase and its keys are gone; a config that still sets them is rejected
    for key in ("finetune", "epochs_finetune", "lr_finetune"):
        path.write_text(f"{key} = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"key '{key}': unknown config key"):
            load_config(path)
    path.write_text("just some words\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("seed = banana\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)
    path.write_bytes(b"seed = 3\n\x80 = 1\n")
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config(path)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.cfg")
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path)


def test_load_config_rejects_removed_keys(tmp_path):
    # both loss terms weigh 1, and synth draws straight/left/right thirds at speed 0.25 with jitter 0.02
    path = tmp_path / "old.cfg"
    for key, value in (("intent_weight", "1.0"), ("future_weight", "1.0"), ("synth_jitter", "0.02"), ("synth_speed", "0.25"), ("synth_modes", "0:0.5,90:0.5")):
        path.write_text(f"scale = meter\n{key} = {value}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^key '{key}': unknown config key$"):
            load_config(path)
        with pytest.raises(TypeError, match=key):
            Config(**{key: 1.0})


def test_load_config_rejects_a_key_set_twice(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("scale = meter\nseed = 3\n# seed = 4\n\nseed = 5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^key 'seed': set on line 2 and again on line 5$") as info:
        load_config(path)
    assert info.value.key == "seed"
    # the same value twice is still a repeat
    path.write_text("seed = 3\nseed = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="key 'seed': set on line 1 and again on line 2"):
        load_config(path)


def test_cli_rejects_a_config_key_set_twice(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    path.write_text(f"seed = 3\nseed = 5\nout_dir = {out}\nsynth_scenes = 2\n", encoding="utf-8")
    assert main(["synth", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: key 'seed': set on line 1 and again on line 2\n"
    assert not out.exists()


def test_load_config_ignores_a_leading_byte_order_mark(tmp_path):
    # Windows editors often save UTF-8 with a byte-order mark
    text = "scale = meter\nseed = 4\nout_dir = runs/bom\n".encode("utf-8")
    path = tmp_path / "run.cfg"
    path.write_bytes(text)
    without = load_config(path)
    path.write_bytes(b"\xef\xbb\xbf" + text)
    assert load_config(path) == without


def test_load_config_parses_types(tmp_path):
    path = tmp_path / "typed.cfg"
    path.write_text(
        "scale = pixel\nseed = 13\nlr_features = 0.005\nlabel_threshold = none\nout_dir = runs/z\n",
        encoding="utf-8",
    )
    config = load_config(path)
    assert config.seed == 13
    assert config.lr_features == 0.005
    assert config.label_threshold is None
    assert config.out_dir == "runs/z"
    assert config.scale == "pixel"


STRING_KEYS = ("train_manifest", "val_manifest", "test_manifest", "out_dir")
# text that reads back as written, and text a key = value line cannot hold
strings = st.one_of(st.text(), st.sampled_from(["runs/x", "", " lead", "trail ", "x\ny = 1", "a\rb", "\udcff", "a = b"]))


@st.composite
def configs(draw):
    """A valid Config with every key drawn, strings included."""
    n_retrieve = draw(st.integers(1, 400))
    counts = st.integers(0, 300)
    threshold = st.one_of(st.none(), st.floats(0.0, 1e300), st.just(math.inf))
    values = dict(
        scale=draw(st.sampled_from(["pixel", "meter"])),
        theta_past=draw(threshold),
        theta_int=draw(threshold),
        n_retrieve=n_retrieve,
        n_predict=draw(st.integers(1, n_retrieve)),
        label_threshold=draw(st.one_of(st.none(), st.floats(1e-300, 1e300))),
        decode_mode=draw(st.sampled_from(["query", "stored"])),
        snap_destination=draw(st.booleans()),
        seed=draw(st.integers(0, 2**63 - 1)),
    )
    for name in ("past_len", "future_len", "past_dim", "intent_dim", "addr_dim", "batch_size", "window_stride", "synth_scenes"):
        values[name] = draw(st.integers(1, 10**6))
    for name in ("epochs_features", "epochs_addresser", "epochs_fulfillment", "max_neighbors", "synth_neighbors"):
        values[name] = draw(counts)
    for name in ("lr_features", "lr_addresser", "lr_fulfillment"):
        values[name] = draw(st.floats(5e-324, 1e300))
    for name in STRING_KEYS:
        values[name] = draw(strings.filter(bool) if name == "out_dir" else strings)
    return Config(**values)


def reads_back(path, key, value) -> bool:
    """Whether a one-line config file holding ``key = value`` loads with that exact value."""
    try:
        path.write_text(f"{key} = {value}\n", encoding="utf-8")
        return getattr(load_config(path), key) == value
    except (UnicodeEncodeError, ConfigError):
        return False


@settings(max_examples=200, deadline=None)
@given(config=configs())
def test_config_file_round_trip_property(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    try:
        config.to_file(path)
    except ConfigError as exc:
        # refused only for a string that the file could not carry back
        assert exc.key in STRING_KEYS
        assert not reads_back(path, exc.key, getattr(config, exc.key))
    else:
        assert load_config(path) == config


def test_to_file_rejects_strings_it_cannot_write_back(tmp_path):
    path = tmp_path / "run.cfg"
    for key, value in (("out_dir", "x\ny = 1"), ("out_dir", " lead"), ("train_manifest", "trail\t"), ("val_manifest", "a\rb")):
        with pytest.raises(ConfigError, match=key):
            Config(**{key: value}).to_file(path)
        assert not path.exists()


# One line each: NaN passed the old range checks, and an infinite rate failed only later.
NON_FINITE_LINES = [
    ("theta_past", "nan"),
    ("theta_past", "-inf"),
    ("theta_int", "nan"),
    ("lr_features", "nan"),
    ("lr_features", "inf"),
    ("lr_addresser", "inf"),
    ("lr_fulfillment", "inf"),
    ("label_threshold", "inf"),
    ("label_threshold", "nan"),
]


def test_cli_rejects_non_finite_config_values(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    for key, value in NON_FINITE_LINES:
        path.write_text(f"{key} = {value}\nout_dir = {out}\nsynth_scenes = 2\n", encoding="utf-8")
        assert main(["synth", "--config", str(path)]) == 1, (key, value)
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"key '{key}'" in err and "finite" in err
    assert not out.exists()
    # an infinite redundancy threshold stays allowed: the filter then ignores that distance
    path.write_text("theta_past = inf\ntheta_int = inf\n", encoding="utf-8")
    config = load_config(path)
    assert config.theta_past == config.theta_int == math.inf


def test_cli_rejects_a_negative_seed(tmp_path, capsys):
    path = tmp_path / "negative.cfg"
    out = tmp_path / "out"
    path.write_text(f"scale = meter\nseed = -1\nout_dir = {out}\nsynth_scenes = 2\n", encoding="utf-8")
    assert main(["synth", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "key 'seed': must be >= 0, got -1" in err
    assert not out.exists()


def test_empty_out_dir_is_rejected(tmp_path, monkeypatch, capsys):
    # an empty out_dir would write every output into the working directory
    with pytest.raises(ConfigError, match=r"^key 'out_dir': must be non-empty"):
        Config(out_dir="")
    path = tmp_path / "run.cfg"
    path.write_text("synth_scenes = 2\nout_dir =\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: key 'out_dir': must be non-empty") and err.count("\n") == 1
    assert not (tmp_path / "synth").exists()
    # '.' stays the explicit way to write into the working directory
    path.write_text("synth_scenes = 2\nout_dir = .\n", encoding="utf-8")
    assert load_config(path).out_dir == "."


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `(\w+)` \|", section, flags=re.M) == [f.name for f in fields(Config)]
