"""End-to-end tests for the staged pipeline, its manifests, and the CLI."""

import builtins
import errno
import io
import json
import re
import shutil
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memtraj import pipeline
from memtraj.cli import COMMANDS, main
from memtraj.config import Config
from memtraj.datasets import load_manifest, synth_generate
from memtraj.errors import DependencyError
from memtraj.evalkit import evaluate, min_ade, min_fde
from memtraj.inference import predict_scene, scene_seed
from memtraj.membank import bank_load
from memtraj.numkit import load_mlp
from memtraj.pipeline import (
    MANIFEST_NAME,
    STAGE_ADDRESSER,
    STAGE_BANK,
    STAGE_FEATURES,
    STAGE_FULFILLMENT,
    _NET_TYPES,
    RunManifest,
    _segment_epochs,
    artifact_hash,
    load_model_bundle,
    run_eval,
    run_predict,
    run_synth,
    stage_build_memory,
    stage_train_addresser,
    stage_train_features,
    stage_train_fulfillment,
    train_addresser_selected,
)

from oracles import synth_meta, train_addresser


def tiny_config(out_dir, **overrides):
    out_dir = str(out_dir)
    base = dict(
        scale="meter",
        past_dim=32,
        intent_dim=16,
        addr_dim=32,
        epochs_features=4,
        epochs_addresser=3,
        epochs_fulfillment=4,
        batch_size=8,
        n_retrieve=6,
        n_predict=3,
        seed=5,
        synth_scenes=12,
        out_dir=out_dir,
        train_manifest=out_dir + "/synth/manifest.txt",
        test_manifest=out_dir + "/synth/manifest.txt",
    )
    base.update(overrides)
    return Config(**base)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    config = tiny_config(out_dir)
    run_synth(config)
    stage_train_features(config)
    stage_build_memory(config)
    stage_train_addresser(config)
    stage_train_fulfillment(config)
    return config


def test_synth_artifacts(tmp_path):
    config = tiny_config(tmp_path)
    synth_dir = run_synth(config)
    assert (synth_dir / "scenes.tsv").exists()
    assert (synth_dir / "manifest.txt").read_text(encoding="utf-8") == "scenes.tsv\n"
    labels = (synth_dir / "labels.csv").read_text(encoding="utf-8").strip().split("\n")
    assert labels[0] == "window_scene_id,synth_scene_id"
    assert len(labels) == 1 + config.synth_scenes

    # every window produced by the manifest loader is labeled, and the label
    # still parses as generator metadata
    scenes = load_manifest(config.train_manifest, past_len=config.past_len, future_len=config.future_len)
    assert len(scenes) == config.synth_scenes
    mapping = dict(line.split(",", 1) for line in labels[1:])
    for scene in scenes:
        assert scene.scene_id in mapping
        meta = synth_meta(mapping[scene.scene_id])
        assert meta["mode"] >= 0


def test_stage_records_and_manifest(trained_run):
    config = trained_run
    manifest = RunManifest.load(config.out_dir)
    assert set(manifest.stages) == {STAGE_FEATURES, STAGE_BANK, STAGE_ADDRESSER, STAGE_FULFILLMENT}
    for record in manifest.stages.values():
        assert record.config_hash == config.stage_hash()
        assert len(record.sha256) == 64
    raw = json.loads((Path(config.out_dir) / MANIFEST_NAME).read_text(encoding="utf-8"))
    assert set(raw["stages"]) == set(manifest.stages)
    # every net stage names its files by the fields of its net type
    encoder_decoder = ["ego_embed", "neighbor_embed", "social_fuse", "point_embed", "decoder"]
    for stage, files in (
        (STAGE_FEATURES, [f"{net}.mtnn" for net in encoder_decoder] + ["manifest.json"]),
        (STAGE_BANK, ["bank.mtbk"]),
        (STAGE_ADDRESSER, ["query_proj.mtnn", "key_proj.mtnn", "manifest.json"]),
        (STAGE_FULFILLMENT, [f"{net}.mtnn" for net in encoder_decoder] + ["manifest.json"]),
    ):
        assert sorted(p.name for p in (Path(config.out_dir) / stage).iterdir()) == sorted(files)


def test_bundle_and_fixed_cosine_swap(trained_run):
    config = trained_run
    bundle = load_model_bundle(config)
    assert bundle.feature_nets.past_dim == config.past_dim
    assert len(bundle.bank) > 0
    assert bundle.fulfill_nets.target_len == config.future_len

    swapped = load_model_bundle(config, fixed_cosine=True)
    from memtraj.addresser import fixed_cosine_nets

    reference = fixed_cosine_nets(config.past_dim)
    np.testing.assert_array_equal(swapped.addresser_nets.query_proj.weights[0], reference.query_proj.weights[0])
    # the addresser stage recorded which training snapshot won the holdout selection
    meta = json.loads((Path(config.out_dir) / "addresser" / "manifest.json").read_text(encoding="utf-8"))
    assert 0 <= meta["selected_epoch"] <= config.epochs_addresser
    assert meta["holdout_error"] >= 0.0
    assert bundle.addresser_nets.query_proj.weights[0].shape == (config.addr_dim, config.past_dim)


def test_load_model_bundle_reads_each_artifact_file_once(trained_run, monkeypatch):
    # each stage parses the bytes its hash check read, so no artifact file is read twice
    out_dir = Path(trained_run.out_dir).resolve()
    reads = Counter()
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, Path)) and "r" in mode:
            reads[Path(file).resolve()] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    load_model_bundle(trained_run)
    stages = (STAGE_FEATURES, STAGE_BANK, STAGE_ADDRESSER, STAGE_FULFILLMENT)
    artifact_files = sorted(path for stage in stages for path in (out_dir / stage).iterdir())
    assert sorted(path for path in reads if path.parent != out_dir) == artifact_files
    assert {reads[path] for path in artifact_files} == {1}


def test_a_stage_directory_without_a_file_it_loads_is_refused(tmp_path):
    # its recorded hash matches, as for a directory of an older layout, but a net file is gone
    config = tiny_config(tmp_path)
    run_synth(config)
    stage_train_features(config)
    (tmp_path / STAGE_FEATURES / "point_embed.mtnn").unlink()
    manifest = RunManifest.load(tmp_path)
    manifest.stages[STAGE_FEATURES].sha256 = artifact_hash(tmp_path / STAGE_FEATURES)
    manifest.save(tmp_path)
    with pytest.raises(DependencyError, match=f"stage '{STAGE_FEATURES}' artifact .* has no point_embed.mtnn; rerun"):
        stage_build_memory(config)


def test_segment_epochs_partitions():
    assert _segment_epochs(10, 8) == [2, 2, 1, 1, 1, 1, 1, 1]
    assert _segment_epochs(3, 8) == [1, 1, 1]
    assert _segment_epochs(16, 8) == [2] * 8
    assert _segment_epochs(0, 8) == []
    for total in range(1, 25):
        chunks = _segment_epochs(total, 8)
        assert sum(chunks) == total and len(chunks) <= 8 and all(c >= 1 for c in chunks)


def test_train_addresser_selected_reports_best(tmp_path):
    from memtraj.addresser import init_addresser_nets
    from memtraj.features import train_features
    from memtraj.membank import bank_init

    config = tiny_config(tmp_path, epochs_addresser=4)
    scenes = synth_generate(41, 16)
    feature_nets = train_features(scenes, config)
    bank = bank_init(feature_nets, scenes)
    init = init_addresser_nets(past_dim=config.past_dim, addr_dim=config.addr_dim)
    nets, report = train_addresser_selected(init, bank, feature_nets, scenes, config)

    epochs = [e for e, _ in report["errors"]]
    errors = [v for _, v in report["errors"]]
    assert epochs[0] == 0 and epochs[-1] == config.epochs_addresser
    assert report["holdout_error"] == min(errors)
    # the earliest best snapshot wins, and epoch zero means the start is kept
    assert report["selected_epoch"] == epochs[errors.index(min(errors))]
    if report["selected_epoch"] == 0:
        np.testing.assert_array_equal(nets.query_proj.weights[0], init.query_proj.weights[0])

    # the input nets are untouched and the whole selection is deterministic
    fresh = init_addresser_nets(past_dim=config.past_dim, addr_dim=config.addr_dim)
    np.testing.assert_array_equal(init.query_proj.weights[0], fresh.query_proj.weights[0])
    nets_again, report_again = train_addresser_selected(init, bank, feature_nets, scenes, config)
    assert report_again == report
    np.testing.assert_array_equal(nets.query_proj.weights[0], nets_again.query_proj.weights[0])
    np.testing.assert_array_equal(nets.key_proj.weights[0], nets_again.key_proj.weights[0])


def test_selection_segments_continue_one_batch_stream(tmp_path, monkeypatch):
    from memtraj import pipeline
    from memtraj.addresser import init_addresser_nets
    from memtraj.features import train_features
    from memtraj.membank import bank_init

    config = tiny_config(tmp_path, epochs_addresser=2, lr_addresser=1e-2)
    scenes = synth_generate(41, 20)
    feature_nets = train_features(scenes, config)
    bank = bank_init(feature_nets, scenes)
    init = init_addresser_nets(past_dim=config.past_dim, addr_dim=config.addr_dim)
    # each snapshot scores better than the last, so the final one (two 1-epoch segments) is kept
    errors = iter([3.0, 2.0, 1.0])
    monkeypatch.setattr(pipeline, "destination_error", lambda *args: next(errors))
    segmented, report = train_addresser_selected(init, bank, feature_nets, scenes, config)
    assert [e for e, _ in report["errors"]] == [0, 1, 2] and report["selected_epoch"] == 2
    # one 2-epoch run on the same training slice (the last two scenes are held out)
    whole = train_addresser(init, bank, feature_nets, scenes[:-2], config)
    for a, b in ((segmented.query_proj, whole.query_proj), (segmented.key_proj, whole.key_proj)):
        np.testing.assert_array_equal(a.weights[0], b.weights[0])
        np.testing.assert_array_equal(a.biases[0], b.biases[0])


def test_selection_numbers_epochs_from_the_stage_start(tmp_path, monkeypatch, caplog):
    from memtraj.addresser import init_addresser_nets
    from memtraj.features import init_encoder_decoder
    from memtraj.membank import bank_init

    config = tiny_config(tmp_path, epochs_addresser=26)
    scenes = synth_generate(41, 20)
    feature_nets = init_encoder_decoder(1, past_len=8, target_len=1, past_dim=config.past_dim, intent_dim=config.intent_dim)
    bank = bank_init(feature_nets, scenes)
    init = init_addresser_nets(past_dim=config.past_dim, addr_dim=config.addr_dim)
    monkeypatch.setattr(pipeline, "destination_error", lambda *args: 1.0)
    with caplog.at_level("INFO", logger="memtraj.numkit"):
        _, report = train_addresser_selected(init, bank, feature_nets, scenes, config)
    # eight segments of 4, 4, 3, ... epochs log the stage's first epoch and its 25th, once each
    assert [e for e, _ in report["errors"]] == [0, 4, 8, 11, 14, 17, 20, 23, 26]
    logged = [r.getMessage().split(":")[0] for r in caplog.records if r.name == "memtraj.numkit"]
    assert logged == ["addresser epoch 1", "addresser epoch 25"]


def test_selection_scores_the_holdout_without_its_own_entries(tmp_path, monkeypatch, capsys):
    from memtraj import pipeline
    from memtraj.addresser import init_addresser_nets
    from memtraj.features import train_features
    from memtraj.membank import bank_init

    config = tiny_config(tmp_path, epochs_addresser=2)
    scenes = synth_generate(41, 30)
    feature_nets = train_features(scenes, config)
    bank = bank_init(feature_nets, scenes)
    banks = []
    monkeypatch.setattr(pipeline, "destination_error", lambda *args: banks.append(args[2]) or 1.0)
    train_addresser_selected(init_addresser_nets(config.past_dim, config.addr_dim), bank, feature_nets, scenes, config)
    # 30 scenes hold out the last 3: every snapshot is scored against the other 27 scenes' entries
    assert len(banks) == 3
    for memory in banks:
        np.testing.assert_array_equal(memory.sample_ids, np.arange(27))
        np.testing.assert_array_equal(memory.past_feats, bank.past_feats[:27])

    # one training scene leaves the held-out scene nothing to retrieve
    one = tiny_config(tmp_path / "one", synth_scenes=1)
    cfg_path = tmp_path / "one.cfg"
    one.to_file(cfg_path)
    for command in ("synth", "train-features", "build-memory"):
        assert main([command, "--config", str(cfg_path)]) == 0
    _assert_cli_error(["train-addresser", "--config", str(cfg_path)], capsys, "train_manifest", "holds out the last 1 of 1")


def test_selection_encodes_each_holdout_scene_once_as_predict_does(tmp_path, monkeypatch):
    from memtraj import pipeline
    from memtraj.addresser import init_addresser_nets, key_table
    from memtraj.datasets import scene_batch
    from memtraj.features import social_encode, train_features
    from memtraj.inference import propose_block
    from memtraj.membank import bank_init

    config = tiny_config(tmp_path, epochs_addresser=2)
    scenes = synth_generate(41, 30)
    feature_nets = train_features(scenes, config)
    bank = bank_init(feature_nets, scenes)
    encoded = []
    encode = pipeline.social_encode
    monkeypatch.setattr(pipeline, "social_encode", lambda nets, holdout: encoded.append(len(holdout)) or encode(nets, holdout))
    init = init_addresser_nets(config.past_dim, config.addr_dim)
    _, report = train_addresser_selected(init, bank, feature_nets, scenes, config)
    # 30 scenes hold out the last 3, encoded once for all three snapshots
    assert encoded == [3] and len(report["errors"]) == 3
    # the start's error to the last bit, from the query predict_scene encodes for each held-out scene
    memory = bank.take(bank.sample_ids < 27)
    keys = key_table(init, memory)
    gaps = []
    for i in range(3):
        alone = scenes[27 + i : 28 + i]  # predict_scene's one-scene set, plus the future
        batch = scene_batch(alone, "the held-out scene")
        queries = social_encode(feature_nets, alone)
        seed = scene_seed(config.seed_for("addresser-selection"), i)
        _, _, (destinations,), _ = propose_block(
            feature_nets, init, memory, keys, queries, config.n_retrieve, config.n_predict, [seed]
        )
        gaps.append(float(np.linalg.norm(destinations - batch.futures[0, -1], axis=1).min()))
    assert report["errors"][0] == (0, float(np.mean(gaps)))


def test_selection_requires_futures(tmp_path):
    from memtraj.addresser import init_addresser_nets
    from memtraj.features import init_encoder_decoder
    from memtraj.membank import bank_init

    config = tiny_config(tmp_path)
    scenes = synth_generate(41, 30)
    feature_nets = init_encoder_decoder(1, past_len=8, target_len=1, past_dim=config.past_dim, intent_dim=config.intent_dim)
    bank = bank_init(feature_nets, scenes)
    init = init_addresser_nets(config.past_dim, config.addr_dim)
    # the first held-out scene is named
    with pytest.raises(ValueError, match="scene 'synth-000027.* has no future; addresser selection needs one"):
        train_addresser_selected(init, bank, feature_nets, replace(scenes, futures=None), config)


def test_addresser_manifest_records_every_snapshot_error(trained_run):
    config = trained_run
    meta = json.loads((Path(config.out_dir) / STAGE_ADDRESSER / "manifest.json").read_text(encoding="utf-8"))
    # three 1-epoch segments after the untrained start
    assert [epoch for epoch, _ in meta["errors"]] == [0, 1, 2, 3]
    errors = [error for _, error in meta["errors"]]
    assert meta["holdout_error"] == min(errors)
    assert meta["selected_epoch"] == errors.index(min(errors))


def test_an_invalid_run_manifest_stops_a_stage_before_it_trains(tmp_path, monkeypatch, capsys):
    from memtraj import pipeline

    config = tiny_config(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    config.to_file(cfg_path)
    run_synth(config)
    stage_train_features(config)
    manifest = tmp_path / MANIFEST_NAME
    data = json.loads(manifest.read_text(encoding="utf-8"))
    data["stages"][STAGE_FEATURES]["path"] = STAGE_FEATURES  # a record of an older layout
    manifest.write_text(json.dumps(data), encoding="utf-8")
    shutil.rmtree(tmp_path / STAGE_FEATURES)

    def never(*args):
        raise AssertionError("a stage trained under an invalid run manifest")

    monkeypatch.setattr(pipeline, "train_features", never)
    monkeypatch.setattr(pipeline, "train_fulfillment", never)
    for command in ("train-features", "build-memory", "train-addresser", "train-fulfillment"):
        _assert_cli_error([command, "--config", str(cfg_path)], capsys, str(manifest), "delete it and rerun every stage")
    assert not list(tmp_path.rglob("*.mtnn"))
    # the way out the message names
    monkeypatch.undo()
    manifest.unlink()
    for stage in (stage_train_features, stage_build_memory, stage_train_addresser, stage_train_fulfillment):
        stage(config)
    load_model_bundle(config)


def test_a_stage_directory_holds_only_the_files_of_its_last_run(tmp_path):
    config = tiny_config(tmp_path)
    run_synth(config)
    stage_train_features(config)
    stage_build_memory(config)
    before = {name: record.sha256 for name, record in RunManifest.load(config.out_dir).stages.items()}
    features_files = sorted(p.name for p in (tmp_path / STAGE_FEATURES).iterdir())
    # files of the layout before nets were named by field, and other strays
    (tmp_path / STAGE_FEATURES / "joint_dec.mtnn").write_bytes(b"old")
    (tmp_path / STAGE_FEATURES / "old").mkdir()
    (tmp_path / STAGE_FEATURES / "old" / "intention_enc.mtnn").write_bytes(b"old")
    (tmp_path / STAGE_BANK / "notes.txt").write_text("stray", encoding="utf-8")
    stage_train_features(config)
    stage_build_memory(config)
    assert sorted(p.name for p in (tmp_path / STAGE_FEATURES).iterdir()) == features_files
    assert [p.name for p in (tmp_path / STAGE_BANK).iterdir()] == ["bank.mtbk"]
    after = {name: record.sha256 for name, record in RunManifest.load(config.out_dir).stages.items()}
    assert after == before


def test_predict_outputs(trained_run):
    config = trained_run
    out_dir = Path(config.out_dir)
    run_predict(config, trace=True)

    pred_lines = (out_dir / "predictions.csv").read_text(encoding="utf-8").strip().split("\n")
    assert pred_lines[0] == "scene_id,k,t,x,y"
    assert len(pred_lines) == 1 + config.synth_scenes * config.n_predict * config.future_len
    first = pred_lines[1].split(",")
    assert first[1] == "0" and first[2] == "1"  # k is 0-based, t is 1-based
    float(first[3]), float(first[4])
    t_values = {int(line.split(",")[2]) for line in pred_lines[1:]}
    assert t_values == set(range(1, config.future_len + 1))

    dest_lines = (out_dir / "destinations.csv").read_text(encoding="utf-8").strip().split("\n")
    assert dest_lines[0] == "scene_id,cluster_index,x,y,member_count"
    assert len(dest_lines) == 1 + config.synth_scenes * config.n_predict
    counts = {}
    for line in dest_lines[1:]:
        scene_id, _, _, _, count = line.split(",")
        counts[scene_id] = counts.get(scene_id, 0) + int(count)
    assert all(total == config.n_retrieve for total in counts.values())

    trace_lines = (out_dir / "trace.csv").read_text(encoding="utf-8").strip().split("\n")
    assert trace_lines[0] == "scene_id,rank,address,sample_id,score"
    assert len(trace_lines) == 1 + config.synth_scenes * config.n_retrieve


def test_shared_loop_seeds_scenes_in_order(trained_run):
    config = trained_run
    scenes = load_manifest(config.test_manifest, past_len=config.past_len, future_len=config.future_len)
    bundle = load_model_bundle(config)
    direct = [
        predict_scene(bundle, scene, config.n_retrieve, config.n_predict, seed=scene_seed(config.seed, i))
        for i, scene in enumerate(scenes)
    ]
    report = evaluate(bundle, scenes, n_predict=config.n_predict, n_retrieve=config.n_retrieve, seed=config.seed)
    assert [row.scene_id for row in report.rows] == [scene.scene_id for scene in scenes]
    for row, pred, scene in zip(report.rows, direct, scenes):
        assert row.min_ade == min_ade(pred.trajectories, scene.ego_future)
        assert row.min_fde == min_fde(pred.trajectories, scene.ego_future)

    run_predict(config)
    expected = ["scene_id,k,t,x,y"] + [
        "%s,%d,%d,%r,%r" % (pred.scene_id, k, t + 1, float(x), float(y))
        for pred in direct
        for k in range(config.n_predict)
        for t, (x, y) in enumerate(pred.trajectories[k])
    ]
    assert (Path(config.out_dir) / "predictions.csv").read_text(encoding="utf-8").splitlines() == expected


def test_eval_outputs(trained_run, capsys):
    config = trained_run
    report = run_eval(config)
    assert report.units == "meters"
    assert report.n_scenes == config.synth_scenes
    out_dir = Path(config.out_dir)
    summary = (out_dir / "eval_summary.txt").read_text(encoding="utf-8")
    assert f"min_fde_k = {report.min_fde_k!r}" in summary
    rows = (out_dir / "eval_scenes.csv").read_text(encoding="utf-8").strip().split("\n")
    assert len(rows) == 1 + config.synth_scenes
    printed = capsys.readouterr().out
    assert "min_ade_k = " in printed


def test_stage_rerun_is_byte_identical(trained_run):
    config = trained_run
    features_dir = Path(config.out_dir) / STAGE_FEATURES
    before = {p.name: p.read_bytes() for p in sorted(features_dir.iterdir())}
    stage_train_features(config)
    after = {p.name: p.read_bytes() for p in sorted(features_dir.iterdir())}
    assert before == after


def test_rerunning_every_stage_leaves_the_run_manifest_byte_identical(trained_run):
    manifest = Path(trained_run.out_dir) / MANIFEST_NAME
    before = manifest.read_bytes()
    for stage in (stage_train_features, stage_build_memory, stage_train_addresser, stage_train_fulfillment):
        stage(trained_run)
    assert manifest.read_bytes() == before


def test_fulfillment_trains_straight_after_synth(tmp_path):
    config = tiny_config(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    config.to_file(cfg_path)
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["train-fulfillment", "--config", str(cfg_path)]) == 0
    assert set(RunManifest.load(config.out_dir).stages) == {STAGE_FULFILLMENT}


def test_synth_windows_longer_than_the_scene_spacing_stay_apart(tmp_path):
    config = tiny_config(tmp_path, future_len=1000, synth_neighbors=0, synth_scenes=3)
    synth_dir = run_synth(config)
    scenes = load_manifest(config.train_manifest, past_len=config.past_len, future_len=config.future_len)
    assert [scene.n_neighbors for scene in scenes] == [0, 0, 0]
    labels = (synth_dir / "labels.csv").read_text(encoding="utf-8").strip().split("\n")[1:]
    assert sorted(line.split(",", 1)[0] for line in labels) == sorted(scene.scene_id for scene in scenes)


def test_missing_stage_raises(tmp_path):
    config = tiny_config(tmp_path)
    run_synth(config)
    with pytest.raises(DependencyError, match="has not been run"):
        stage_build_memory(config)
    with pytest.raises(DependencyError, match="features"):
        load_model_bundle(config)


def test_config_change_invalidates_stage(tmp_path):
    config = tiny_config(tmp_path)
    run_synth(config)
    stage_train_features(config)
    changed = tiny_config(tmp_path, seed=6)
    with pytest.raises(DependencyError, match="different config"):
        stage_build_memory(changed)


def test_runtime_only_keys_do_not_invalidate(trained_run, tmp_path):
    config = trained_run
    # decode mode and destination snapping are prediction-time choices
    run_predict(replace(config, decode_mode="stored"))
    run_predict(replace(config, snap_destination=True))
    # evaluating a different test manifest must not force retraining
    alt_manifest = tmp_path / "alt_manifest.txt"
    alt_manifest.write_text(str(Path(config.out_dir) / "synth" / "scenes.tsv") + "\n", encoding="utf-8")
    run_eval(replace(config, test_manifest=str(alt_manifest)))
    # a relocated artifact tree stays valid when only out_dir changes
    moved = tmp_path / "moved"
    shutil.copytree(config.out_dir, moved)
    run_predict(replace(config, out_dir=str(moved)))
    assert (moved / "predictions.csv").exists()


def test_tampered_artifact_detected(tmp_path):
    config = tiny_config(tmp_path)
    run_synth(config)
    stage_train_features(config)
    target = tmp_path / STAGE_FEATURES / "ego_embed.mtnn"
    data = bytearray(target.read_bytes())
    data[-1] ^= 0xFF
    target.write_bytes(bytes(data))
    with pytest.raises(DependencyError, match="recorded hash"):
        stage_build_memory(config)


def test_deleted_artifact_detected(tmp_path):
    config = tiny_config(tmp_path)
    run_synth(config)
    stage_train_features(config)
    shutil.rmtree(tmp_path / STAGE_FEATURES)
    with pytest.raises(DependencyError, match="missing"):
        stage_build_memory(config)


def test_retrained_prerequisite_makes_later_stages_stale(tmp_path, capsys):
    config = tiny_config(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    config.to_file(cfg_path)
    run_synth(config)
    for stage in (stage_train_features, stage_build_memory, stage_train_addresser, stage_train_fulfillment):
        stage(config)
    stages = RunManifest.load(config.out_dir).stages
    assert stages[STAGE_FEATURES].inputs == {} and stages[STAGE_FULFILLMENT].inputs == {}
    assert stages[STAGE_BANK].inputs == {STAGE_FEATURES: stages[STAGE_FEATURES].sha256}
    assert stages[STAGE_ADDRESSER].inputs == {STAGE_FEATURES: stages[STAGE_FEATURES].sha256, STAGE_BANK: stages[STAGE_BANK].sha256}
    # new scenes under the same path, and only the feature nets retrained on them
    run_synth(replace(config, seed=config.seed + 1))
    stage_train_features(config)
    with pytest.raises(DependencyError, match=f"stage '{STAGE_BANK}' was built from a '{STAGE_FEATURES}' artifact"):
        load_model_bundle(config)
    _assert_cli_error(["predict", "--config", str(cfg_path)], capsys, f"'{STAGE_BANK}'", f"'{STAGE_FEATURES}'")
    with pytest.raises(DependencyError, match=f"stage '{STAGE_BANK}'"):
        stage_train_addresser(config)
    # a rebuilt bank clears the bank stage; the addresser read both older artifacts
    stage_build_memory(config)
    with pytest.raises(DependencyError, match=f"stage '{STAGE_ADDRESSER}' was built from a '{STAGE_BANK}' artifact"):
        load_model_bundle(config)
    stage_train_addresser(config)
    load_model_bundle(config)
    # the recorded inputs are validated like the other record fields
    manifest = Path(config.out_dir) / MANIFEST_NAME
    data = json.loads(manifest.read_text(encoding="utf-8"))
    for bad in (["features"], {STAGE_FEATURES: 5}):
        data["stages"][STAGE_BANK]["inputs"] = bad
        manifest.write_text(json.dumps(data), encoding="utf-8")
        _assert_cli_error(["predict", "--config", str(cfg_path)], capsys, str(manifest), "inputs", "delete it and rerun every stage")


def test_stage_records_the_prerequisite_hashes_it_verified(tmp_path, monkeypatch):
    from memtraj import pipeline

    config = tiny_config(tmp_path)
    run_synth(config)
    stage_train_features(config)
    stage_build_memory(config)
    select = pipeline.train_addresser_selected

    def rebuild_the_bank_midway(*args):
        run_synth(replace(config, seed=config.seed + 1))
        stage_build_memory(config)
        return select(*args)

    monkeypatch.setattr(pipeline, "train_addresser_selected", rebuild_the_bank_midway)
    stage_train_addresser(config)
    stage_train_fulfillment(config)
    # the addresser trained on the bank it read, which the rebuild has since replaced
    with pytest.raises(DependencyError, match=f"stage '{STAGE_ADDRESSER}' was built from a '{STAGE_BANK}' artifact that has changed since"):
        load_model_bundle(config)


def test_cli_refuses_a_bank_built_from_other_training_scenes(tmp_path, capsys):
    config = tiny_config(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    config.to_file(cfg_path)
    for command in ("synth", "train-features", "build-memory"):
        assert main([command, "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    # drop the first scene's agents (its ego and two neighbors) from the training tracks
    tsv = tmp_path / "synth" / "scenes.tsv"
    lines = tsv.read_text(encoding="utf-8").splitlines(keepends=True)
    tsv.write_text("".join(line for line in lines if int(line.split()[1]) > 2), encoding="utf-8")
    assert len(load_manifest(config.train_manifest, past_len=config.past_len, future_len=config.future_len)) == 11
    _assert_cli_error(["train-addresser", "--config", str(cfg_path)], capsys, f"stage '{STAGE_BANK}'", "train_manifest")
    assert STAGE_ADDRESSER not in RunManifest.load(config.out_dir).stages


def test_cli_full_run(tmp_path, capsys):
    config = tiny_config(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    config.to_file(cfg_path)
    args = ["--config", str(cfg_path)]
    assert main(["synth", *args]) == 0
    assert main(["train-features", *args]) == 0
    assert main(["build-memory", *args]) == 0
    assert main(["train-addresser", *args]) == 0
    assert main(["train-fulfillment", *args]) == 0
    assert main(["predict", "--trace", *args]) == 0
    assert main(["eval", *args]) == 0
    capsys.readouterr()
    assert (tmp_path / "predictions.csv").exists()
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "eval_summary.txt").exists()


def test_cli_reports_errors(tmp_path, capsys):
    config = tiny_config(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    config.to_file(cfg_path)
    # eval without any trained stage fails cleanly
    assert main(["eval", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    # a broken config file also takes the clean error path
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 1\n", encoding="utf-8")
    assert main(["eval", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "no_such_key" in err
    # a manifest whose tracks are too short for one window gives no scenes
    (tmp_path / "short.tsv").write_text("1 1 0.0 0.0\n2 1 0.1 0.0\n", encoding="utf-8")
    (tmp_path / "short.txt").write_text("short.tsv\n", encoding="utf-8")
    short = tmp_path / "short.cfg"
    replace(config, train_manifest=str(tmp_path / "short.txt"), test_manifest=str(tmp_path / "short.txt")).to_file(short)
    for command, key in (("train-features", "train_manifest"), ("eval", "test_manifest")):
        assert main([command, "--config", str(short)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert f"key '{key}'" in err and "past_len + future_len = 20" in err
    # an unreadable config file names its path
    missing = tmp_path / "nope.cfg"
    _assert_cli_error(["eval", "--config", str(missing)], capsys, str(missing))
    _assert_cli_error(["eval", "--config", str(tmp_path)], capsys, str(tmp_path))
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"seed = 3\n\xff\xfe = 1\n")
    _assert_cli_error(["eval", "--config", str(binary)], capsys, str(binary), "UTF-8")
    # a bad byte in one of several listed track files names that file and its line
    lines = "".join(f"{frame} 1 {0.1 * frame!r} 0.0\n" for frame in range(25)).encode("ascii")
    (tmp_path / "good.tsv").write_bytes(lines)
    (tmp_path / "bad.tsv").write_bytes(lines.replace(b"\n1 1", b"\n1 1\xff", 1))
    listing = tmp_path / "two.txt"
    listing.write_text("good.tsv\nbad.tsv\n", encoding="utf-8")
    two = tmp_path / "two.cfg"
    replace(config, train_manifest=str(listing)).to_file(two)
    _assert_cli_error(["train-features", "--config", str(two)], capsys, f"{tmp_path / 'bad.tsv'}: line 2: not UTF-8")
    # a manifest line that is not UTF-8 is reported with its line number
    listing.write_bytes(b"good.tsv\n\xff.tsv\n")
    _assert_cli_error(["train-features", "--config", str(two)], capsys, f"{listing}: line 2: not UTF-8")


@pytest.mark.parametrize("theta_int", [0.0, float("inf")])
def test_cli_rejects_a_default_label_cutoff_that_is_zero_or_infinite(tmp_path, capsys, theta_int):
    # the default cutoff is 5 * theta_int; a config with either threshold still loads
    config = tiny_config(tmp_path, synth_scenes=60, epochs_features=1, epochs_addresser=1, theta_int=theta_int)
    cfg_path = tmp_path / "run.cfg"
    config.to_file(cfg_path)
    for command in ("synth", "train-features", "build-memory"):
        assert main([command, "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    _assert_cli_error(["train-addresser", "--config", str(cfg_path)], capsys, "key 'label_threshold'", f"theta_int = {theta_int!r}")


def _assert_cli_error(argv, capsys, *needles):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err


def test_cli_reports_an_output_path_it_cannot_create(tmp_path, capsys):
    config = tiny_config(tmp_path / "run", epochs_features=1)
    cfg_path = tmp_path / "run.cfg"
    config.to_file(cfg_path)
    assert main(["synth", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    blocker = tmp_path / "afile"
    blocker.write_text("a regular file\n", encoding="utf-8")
    # train_manifest still points at the synth run, so train-features fails only when it saves
    blocked = tmp_path / "blocked.cfg"
    replace(config, out_dir=str(blocker / "sub")).to_file(blocked)
    for command in ("synth", "train-features"):
        _assert_cli_error([command, "--config", str(blocked)], capsys, "Not a directory", str(blocker / "sub"))
    assert blocker.read_text(encoding="utf-8") == "a regular file\n"


class _FullDisk:
    """A text file that fails like a full disk on its second write, or when closed after only one."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        self.fh.close()
        if exc_type is None:
            raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize(
    "name", ["synth/scenes.tsv", "synth/manifest.txt", "synth/labels.csv", "eval_scenes.csv", "eval_summary.txt", "run.cfg"]
)
def test_interrupted_write_keeps_the_previous_file(trained_run, tmp_path, monkeypatch, name):
    from memtraj import numkit

    if name.startswith("synth/"):
        config = tiny_config(tmp_path)
        target = tmp_path / name
        write = lambda: run_synth(config)  # noqa: E731
    elif name.startswith("eval_"):
        target = Path(trained_run.out_dir) / name
        write = lambda: run_eval(trained_run)  # noqa: E731
    else:
        target = tmp_path / name
        write = lambda: trained_run.to_file(target)  # noqa: E731
    write()
    before = target.read_bytes()

    def failing_open(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        return _FullDisk(fh) if Path(file).name.startswith(f".{target.name}.") else fh

    monkeypatch.setattr(numkit, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        write()
    assert target.read_bytes() == before
    assert not list(target.parent.glob(".*.tmp"))


def test_cli_reports_unreadable_tracks_and_run_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    config = tiny_config(out)
    cfg_path = tmp_path / "run.cfg"
    config.to_file(cfg_path)
    assert main(["synth", "--config", str(cfg_path)]) == 0
    tsv = out / "synth" / "scenes.tsv"
    good = tsv.read_bytes()
    lines = good.split(b"\n")
    tsv.write_bytes(b"\n".join(lines[:2] + [lines[2].replace(b" ", b" \xe9", 1)] + lines[3:]))
    _assert_cli_error(["train-features", "--config", str(cfg_path)], capsys, "line 3", "UTF-8")
    tsv.write_bytes(good)
    assert main(["train-features", "--config", str(cfg_path)]) == 0
    manifest = out / MANIFEST_NAME
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(text[: len(text) // 2], encoding="utf-8")
    _assert_cli_error(["build-memory", "--config", str(cfg_path)], capsys, str(manifest), "delete it and rerun every stage")
    data = json.loads(text)
    del data["stages"][STAGE_FEATURES]["sha256"]
    manifest.write_text(json.dumps(data), encoding="utf-8")
    _assert_cli_error(["build-memory", "--config", str(cfg_path)], capsys, str(manifest), "sha256")
    data = json.loads(text)
    data["stages"][STAGE_FEATURES]["config_hash"] = 5
    manifest.write_text(json.dumps(data), encoding="utf-8")
    _assert_cli_error(["build-memory", "--config", str(cfg_path)], capsys, str(manifest), "must be strings")
    # a manifest written while stage records carried the artifact's path
    data = json.loads(text)
    data["stages"][STAGE_FEATURES]["path"] = STAGE_FEATURES
    manifest.write_text(json.dumps(data), encoding="utf-8")
    _assert_cli_error(["build-memory", "--config", str(cfg_path)], capsys, str(manifest), "path", "delete it and rerun every stage")
    # a manifest written while stage records carried a timestamp
    data = json.loads(text)
    data["stages"][STAGE_FEATURES]["created"] = "2026-01-01T00:00:00+00:00"
    manifest.write_text(json.dumps(data), encoding="utf-8")
    _assert_cli_error(["build-memory", "--config", str(cfg_path)], capsys, str(manifest), "created", "delete it and rerun every stage")


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--seed", "2"],
        ["synth", "--out", "elsewhere"],
        ["synth", "--scenes", "2"],
        ["predict", "--decode-mode", "stored"],
        ["eval", "--decode-mode", "stored"],
    ],
)
def test_cli_has_no_flag_that_overrides_the_config(tmp_path, monkeypatch, capsys, argv):
    # the config file is the whole run: argparse refuses these flags before any command runs
    cfg_path = tmp_path / "run.cfg"
    tiny_config(tmp_path / "out").to_file(cfg_path)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main([*argv, "--config", str(cfg_path)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_cli_requires_a_config(tmp_path, monkeypatch, capsys, command):
    # without --config there are no values to run on: argparse exits 2 before any command writes a file
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main([command])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "the following arguments are required: --config" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def _cli_train(tmp_path, name, **overrides):
    """Synthesize and train a meter-scale run through the CLI; return its config arguments."""
    config = tiny_config(tmp_path / name, n_retrieve=None, **overrides)
    cfg_path = tmp_path / f"{name}.cfg"
    config.to_file(cfg_path)
    args = ["--config", str(cfg_path)]
    for command in ("synth", "train-features", "build-memory", "train-addresser", "train-fulfillment"):
        assert main([command, *args]) == 0
    return config, args


def test_cli_small_bank_limits_retrieval(tmp_path, capsys):
    # the meter default retrieves 320 entries, more than 100 scenes can fill
    config, args = _cli_train(tmp_path, "small", synth_scenes=100)
    bank_size = len(load_model_bundle(config).bank)
    assert config.n_retrieve == 320 and bank_size <= 100
    assert main(["predict", "--trace", *args]) == 0
    assert main(["eval", *args]) == 0
    trace_lines = (Path(config.out_dir) / "trace.csv").read_text(encoding="utf-8").strip().split("\n")
    assert len(trace_lines) == 1 + config.synth_scenes * bank_size
    capsys.readouterr()

    # K above every retrievable entry is a clean error, not a traceback
    config, args = _cli_train(tmp_path, "tiny", synth_scenes=12, n_predict=20)
    bank_size = len(load_model_bundle(config).bank)
    capsys.readouterr()
    for command in ("predict", "eval"):
        assert main([command, *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"n_predict (20) exceeds the {bank_size} entries" in err


# one epoch per stage: a learning rate of 1e12 diverges without any batch loss turning non-finite
_DIVERGING = dict(
    synth_scenes=40, past_dim=16, intent_dim=8, addr_dim=16, batch_size=32, n_retrieve=8, n_predict=4, seed=1,
    epochs_features=1, epochs_addresser=1, epochs_fulfillment=1,
)


def test_cli_a_diverged_feature_stage_stops_build_memory_with_one_error_line(tmp_path, capsys):
    # a diverging feature stage saves finite weights whose features overflow to NaN
    config = tiny_config(tmp_path, **_DIVERGING, lr_features=1e12)
    cfg_path = tmp_path / "run.cfg"
    config.to_file(cfg_path)
    for command in ("synth", "train-features"):
        assert main([command, "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["build-memory", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'features' gives non-finite features for scene 0 (")
    assert err.endswith("; retrain it with a lower lr_features\n")
    assert err.count("error:") == 1 and "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]  # numpy's overflow warnings stay quiet
    assert not (tmp_path / STAGE_BANK).exists()
    assert STAGE_BANK not in RunManifest.load(config.out_dir).stages


def test_cli_a_diverging_feature_loss_stops_train_features_naming_lr_features(tmp_path, capsys):
    # at lr_features = 1e3 the first steps overshoot until a batch loss is no longer finite
    config = tiny_config(tmp_path, **{**_DIVERGING, "epochs_features": 3}, lr_features=1e3)
    cfg_path = tmp_path / "run.cfg"
    config.to_file(cfg_path)
    assert main(["synth", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train-features", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: non-finite features loss at epoch \d+; retrain stage 'features' with a lower lr_features\n", err), err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / STAGE_FEATURES).exists()


def test_cli_a_diverged_addresser_stops_train_addresser_with_one_error_line(tmp_path, capsys):
    # a diverging addresser keeps finite weights whose projection norms
    # overflow, so every score would be 0 and retrieval would ignore the bank
    config = tiny_config(tmp_path, **_DIVERGING, lr_addresser=1e300)
    cfg_path = tmp_path / "run.cfg"
    config.to_file(cfg_path)
    for command in ("synth", "train-features", "build-memory"):
        assert main([command, "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train-addresser", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'addresser' gives a non-finite ")
    assert err.endswith("; retrain it with a lower lr_addresser\n")
    assert err.count("error:") == 1 and "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / STAGE_ADDRESSER).exists()
    assert STAGE_ADDRESSER not in RunManifest.load(config.out_dir).stages


@pytest.fixture(scope="module")
def diverging_manifest(tmp_path_factory):
    """The manifest of one synthetic split of the diverging size, shared by every run drawn below."""
    out = tmp_path_factory.mktemp("diverging")
    tiny_config(out, **_DIVERGING).to_file(out / "run.cfg")
    assert main(["synth", "--config", str(out / "run.cfg")]) == 0
    return out / "synth" / "manifest.txt"


def _files(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


_NON_FINITE_TEXT = re.compile(rb"\b(?:nan|inf|infinity)\b", re.IGNORECASE)  # as CSV, text and JSON spell them


def _assert_finite(name: str, raw: bytes) -> None:
    """A run file holds no non-finite number: nets and banks by their arrays, text by its tokens."""
    if name.endswith(".mtnn"):
        net = load_mlp(raw)
        assert all(np.isfinite(a).all() for a in (*net.weights, *net.biases)), name
    elif name.endswith(".mtbk"):
        bank = bank_load(raw)
        assert all(np.isfinite(a).all() for a in (bank.past_feats, bank.intent_feats, bank.starts, bank.dests)), name
    else:
        assert not _NON_FINITE_TEXT.search(raw), name


_RATE_KEYS = ("lr_features", "lr_addresser", "lr_fulfillment")
_ABNORMAL_RATES = (1e6, 1e12, 1e300)


# 64 draws in all, few enough that every one runs (about 3 s)
@settings(max_examples=100, deadline=None)
@given(rates=st.tuples(*[st.sampled_from((None, *_ABNORMAL_RATES))] * len(_RATE_KEYS)))
@example(rates=(1e6, None, None))  # a feature stage whose feature norms overflow, once blamed on lr_addresser
def test_cli_any_learning_rate_gives_finite_outputs_or_one_error_line(tmp_path_factory, diverging_manifest, rates):
    # each stage trains one epoch at its drawn rate (None: the default); the
    # first command that fails must say so in one line, naming no rate but a drawn one
    drawn = {key: rate for key, rate in zip(_RATE_KEYS, rates) if rate is not None}
    out = tmp_path_factory.mktemp("rates")
    manifest = str(diverging_manifest)
    tiny_config(out, **_DIVERGING, **drawn, train_manifest=manifest, test_manifest=manifest).to_file(out / "run.cfg")
    for command in ("train-features", "build-memory", "train-addresser", "train-fulfillment", "predict", "eval"):
        before = _files(out)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            status = main([command, "--config", str(out / "run.cfg")])
        err = err.getvalue()
        assert "Traceback" not in err and "RuntimeWarning" not in err, command
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], command
        if status == 0:
            for name, raw in _files(out).items():
                _assert_finite(name, raw)
            continue
        assert drawn and status == 1, (command, err)
        assert err.count("error:") == 1 and err.startswith("error:"), (command, err)
        assert set(re.findall(r"lr_\w+", err)) <= drawn.keys(), (command, err)
        assert _files(out) == before, command  # the failing command wrote nothing
        break


# the trainer each net stage calls, and the subcommand that runs it
_TRAINERS = {
    STAGE_FEATURES: ("train_features", "train-features"),
    STAGE_ADDRESSER: ("train_addresser_selected", "train-addresser"),
    STAGE_FULFILLMENT: ("train_fulfillment", "train-fulfillment"),
}


@pytest.mark.parametrize("stage", list(_TRAINERS))
def test_cli_a_stage_refuses_to_save_non_finite_weights(tmp_path, monkeypatch, capsys, stage):
    config = tiny_config(tmp_path, **_DIVERGING)
    cfg_path = tmp_path / "run.cfg"
    config.to_file(cfg_path)
    for command in ("synth", "train-features", "build-memory", "train-addresser", "train-fulfillment"):
        assert main([command, "--config", str(cfg_path)]) == 0
    saved = artifact_hash(tmp_path / stage)
    manifest = (tmp_path / MANIFEST_NAME).read_bytes()
    trainer, command = _TRAINERS[stage]
    train = getattr(pipeline, trainer)

    def diverging(*args):
        trained = train(*args)
        nets = trained[0] if isinstance(trained, tuple) else trained
        getattr(nets, fields(nets)[-1].name).biases[-1][0] = np.inf
        return trained

    monkeypatch.setattr(pipeline, trainer, diverging)
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path)]) == 1
    last = fields(_NET_TYPES[stage])[-1].name
    err = capsys.readouterr().err
    assert err == f"error: stage '{stage}' trained non-finite weights in {last}; retrain it with a lower lr_{stage}\n"
    # the stage's earlier artifact and its record are left as they were
    assert artifact_hash(tmp_path / stage) == saved
    assert (tmp_path / MANIFEST_NAME).read_bytes() == manifest


def test_cli_diverged_fulfillment_fails_predict_and_eval_and_keeps_their_files(tmp_path, capsys):
    config = tiny_config(tmp_path, **_DIVERGING, lr_fulfillment=1e12)
    cfg_path = tmp_path / "run.cfg"
    config.to_file(cfg_path)
    for command in ("synth", "train-features", "build-memory", "train-addresser", "train-fulfillment"):
        assert main([command, "--config", str(cfg_path)]) == 0
    outputs = ("predictions.csv", "destinations.csv", "eval_scenes.csv", "eval_summary.txt")
    for name in outputs:
        (tmp_path / name).write_text(f"an earlier {name}\n", encoding="utf-8")
    first = load_manifest(config.test_manifest, past_len=config.past_len, future_len=config.future_len).scene_ids[0]
    capsys.readouterr()
    for command in ("predict", "eval"):
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: non-finite trajectories for scene 0 ({first!r})\n"
    for name in outputs:
        assert (tmp_path / name).read_text(encoding="utf-8") == f"an earlier {name}\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
