"""Pipeline stages, artifact layout, and staleness tracking.

Each stage writes its artifacts under the config's out_dir and records in
``run_manifest.json`` the artifact hash, the config's stage hash and, for
every prerequisite artifact it read, the hash it verified on reading it. A
stage refuses to run when a prerequisite is missing, was built under a
different config, no longer matches its recorded hash, or was built from a
prerequisite artifact that has been rebuilt since, so stale artifact mixes
are caught instead of silently mispredicting. The stage hash skips keys no
training stage reads (decode mode, destination snapping, output location,
val/test manifests), so trained artifacts stay usable when only those change.

Every stage's artifact is the directory ``out_dir/<stage>``, holding only
the files the stage's last run wrote. A stage reads ``run_manifest.json``
before it trains, so an invalid one stops it before any work. A net stage
writes one ``<field>.mtnn`` per field of its net type plus ``manifest.json``:
  features/     ego_embed, neighbor_embed, social_fuse, point_embed, decoder
  bank/         bank.mtbk
  addresser/    query_proj, key_proj
  fulfillment/  ego_embed, neighbor_embed, social_fuse, point_embed, decoder
"""

from __future__ import annotations

import hashlib
import json
import logging
import shutil
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .addresser import AddresserNets, addresser_training_data, fit_addresser, fixed_cosine_nets, init_addresser_nets
from .config import Config
from .datasets import SceneSet, build_scenes, dataset_fingerprint, load_manifest, save_tsv, scenes_to_tracks, synth_generate
from .errors import ConfigError, DependencyError, NumericError
from .evalkit import MetricReport, evaluate
from .features import EncoderDecoder, social_encode, train_features
from .fulfillment import train_fulfillment
from .inference import ModelBundle, ScenePrediction, destination_error, predict_scenes
from .membank import MemoryBankPair, bank_filter, bank_init, bank_load, bank_save
from .numkit import atomic_open, load_mlp, save_mlp

logger = logging.getLogger(__name__)

MANIFEST_NAME = "run_manifest.json"

STAGE_FEATURES = "features"
STAGE_BANK = "bank"
STAGE_ADDRESSER = "addresser"
STAGE_FULFILLMENT = "fulfillment"

# The net type each net stage saves; the bank stage saves bank.mtbk.
_NET_TYPES = {STAGE_FEATURES: EncoderDecoder, STAGE_ADDRESSER: AddresserNets, STAGE_FULFILLMENT: EncoderDecoder}


@dataclass
class StageRecord:
    sha256: str
    config_hash: str
    inputs: dict[str, str]  # prerequisite stage -> sha256 this stage verified on reading its artifact


@dataclass
class RunManifest:
    stages: dict[str, StageRecord] = field(default_factory=dict)

    @classmethod
    def load(cls, out_dir) -> "RunManifest":
        path = Path(out_dir) / MANIFEST_NAME
        if not path.exists():
            return cls()
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            stages = {name: StageRecord(**rec) for name, rec in data.get("stages", {}).items()}
            for rec in stages.values():
                if not all(isinstance(value, str) for value in (rec.sha256, rec.config_hash)):
                    raise TypeError("stage record fields must be strings")
                if not isinstance(rec.inputs, dict) or not all(isinstance(value, str) for value in rec.inputs.values()):
                    raise TypeError("stage record inputs must map stage names to hash strings")
        except (ValueError, TypeError, AttributeError) as exc:
            raise DependencyError(f"{path} is not a valid run manifest ({exc}); delete it and rerun every stage") from None
        return cls(stages=stages)

    def save(self, out_dir) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        data = {"stages": {name: vars(rec) for name, rec in self.stages.items()}}
        with atomic_open(out_dir / MANIFEST_NAME) as fh:
            fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def artifact_hash(path: Path, files: dict[str, bytes] | None = None) -> str:
    """SHA-256 over a file, or over a directory's files in sorted order.

    ``files``, when given, receives each file of a directory as the bytes
    that were hashed, by its path within it, so a caller parses what was verified.
    """
    digest = hashlib.sha256()
    if path.is_dir():
        for sub in sorted(p for p in path.rglob("*") if p.is_file()):
            name, data = sub.relative_to(path).as_posix(), sub.read_bytes()
            digest.update(name.encode("utf-8"))
            digest.update(data)
            if files is not None:
                files[name] = data
    else:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _record_stage(config: Config, name: str, reads: dict[str, str]) -> None:
    out_dir = Path(config.out_dir)
    manifest = RunManifest.load(out_dir)
    manifest.stages[name] = StageRecord(
        sha256=artifact_hash(out_dir / name), config_hash=config.stage_hash(), inputs=dict(reads)
    )
    manifest.save(out_dir)


def _load_stage(config: Config, name: str, reads: dict[str, str]):
    """A stage's artifact, loaded once its record checks out; the hash it verified goes into ``reads[name]``.

    DependencyError when the stage has not run, ran under a different config,
    its artifact is missing or no longer matches its recorded hash, or it was
    built from a prerequisite artifact that has changed since.
    """
    out_dir = Path(config.out_dir)
    manifest = RunManifest.load(out_dir)
    record = manifest.stages.get(name)
    if record is None:
        raise DependencyError(f"stage '{name}' has not been run in {out_dir}")
    if record.config_hash != config.stage_hash():
        raise DependencyError(f"stage '{name}' artifacts were built under a different config; rerun it")
    artifact = out_dir / name
    if not artifact.exists():
        raise DependencyError(f"stage '{name}' artifact {artifact} is missing")
    files: dict[str, bytes] = {}  # each file read once: the bytes hashed are the bytes loaded
    if artifact_hash(artifact, files) != record.sha256:
        raise DependencyError(f"stage '{name}' artifact {artifact} does not match its recorded hash")
    for read, sha256 in record.inputs.items():
        current = manifest.stages.get(read)
        if current is None or current.sha256 != sha256:
            raise DependencyError(f"stage '{name}' was built from a '{read}' artifact that has changed since; rerun '{name}'")
    net_type = _NET_TYPES.get(name)
    wanted = [f"{f.name}.mtnn" for f in fields(net_type)] if net_type else ["bank.mtbk"]
    for file_name in wanted:
        if file_name not in files:
            raise DependencyError(f"stage '{name}' artifact {artifact} has no {file_name}; rerun '{name}'")
    reads[name] = record.sha256
    if net_type is None:
        return bank_load(files["bank.mtbk"])
    return net_type(*(load_mlp(files[file_name]) for file_name in wanted))


def _load_scenes(config: Config, which: str) -> SceneSet:
    manifest_path = getattr(config, which)
    if not manifest_path:
        raise ConfigError("no manifest path configured", key=which)
    scenes = load_manifest(
        manifest_path,
        past_len=config.past_len,
        future_len=config.future_len,
        stride=config.window_stride,
        max_neighbors=config.max_neighbors,
    )
    if not scenes:
        window = config.past_len + config.future_len
        raise ConfigError(
            f"{manifest_path} gives no scenes: no track covers past_len + future_len = {window} evenly spaced frames",
            key=which,
        )
    return scenes


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _empty_stage_dir(config: Config, name: str) -> Path:
    """``out_dir/<name>``, emptied, so the stage's artifact holds only the files this run writes."""
    stage_dir = Path(config.out_dir) / name
    if stage_dir.exists():
        shutil.rmtree(stage_dir)
    stage_dir.mkdir(parents=True)
    return stage_dir


def _save_nets(config: Config, name: str, reads: dict[str, str], nets, meta: dict) -> Path:
    """Write one ``<field>.mtnn`` per field of ``nets`` and ``meta`` as manifest.json, then record the stage.

    NumericError naming the stage and its learning-rate key, before any file
    is touched, when a weight or bias of ``nets`` is not finite.
    """
    for f in fields(nets):
        net = getattr(nets, f.name)
        if not all(np.isfinite(a).all() for a in (*net.weights, *net.biases)):
            raise NumericError(f"stage '{name}' trained non-finite weights in {f.name}; retrain it with a lower lr_{name}")
    stage_dir = _empty_stage_dir(config, name)
    for f in fields(nets):
        save_mlp(getattr(nets, f.name), stage_dir / f"{f.name}.mtnn")
    with atomic_open(stage_dir / "manifest.json") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    _record_stage(config, name, reads)
    return stage_dir


def stage_train_features(config: Config) -> Path:
    RunManifest.load(config.out_dir)  # an invalid run manifest fails here, not after training
    nets = train_features(_load_scenes(config, "train_manifest"), config)
    meta = {"past_dim": nets.past_dim, "intent_dim": nets.intent_dim, "past_len": nets.past_len}
    return _save_nets(config, STAGE_FEATURES, {}, nets, meta)


def stage_build_memory(config: Config) -> Path:
    reads: dict[str, str] = {}
    nets = _load_stage(config, STAGE_FEATURES, reads)
    scenes = _load_scenes(config, "train_manifest")
    bank = bank_init(nets, scenes)
    bank = bank_filter(bank, config.theta_past, config.theta_int, config.seed_for("bank-filter"))
    stage_dir = _empty_stage_dir(config, STAGE_BANK)
    bank_save(bank, stage_dir / "bank.mtbk")
    _record_stage(config, STAGE_BANK, reads)
    return stage_dir


SELECTION_SEGMENTS = 8
SELECTION_HOLDOUT_FRACTION = 0.1
SELECTION_HOLDOUT_CAP = 200


def _segment_epochs(total: int, segments: int) -> list[int]:
    """Split ``total`` epochs into at most ``segments`` nonempty chunks."""
    if total <= 0:
        return []
    segments = min(segments, total)
    base, extra = divmod(total, segments)
    return [base + (1 if i < extra else 0) for i in range(segments)]


def train_addresser_selected(
    nets: AddresserNets,
    bank: MemoryBankPair,
    feature_nets: EncoderDecoder,
    dataset: SceneSet,
    config: Config,
) -> tuple[AddresserNets, dict]:
    """Train in segments and keep the snapshot with the lowest held-out destination error.

    The last tenth of the dataset (capped at SELECTION_HOLDOUT_CAP scenes) is
    held out; after each training segment the current nets are scored by
    ``destination_error`` on it, retrieving only from the bank entries of the
    other scenes (a held-out scene's own entry would match it exactly), and
    the best snapshot wins. The held-out scenes are encoded once, by
    :func:`~memtraj.features.social_encode`. ConfigError when no such
    entry is left. The untrained start competes too, so when the
    pseudo-labels carry no ranking signal the addresser keeps its starting
    point instead of degrading retrieval. Ties resolve toward the earlier
    snapshot. Returns the winning nets plus a report dict: ``selected_epoch``, its
    ``holdout_error`` and ``errors``, the ``(epoch, holdout error)`` of every
    snapshot, the start first. The holdout retrieves L =
    ``min(n_retrieve, len(memory))`` entries and clusters them into
    ``min(n_predict, L)``: its error only ranks snapshots against each other,
    so a small bank must not stop the stage.
    """
    n_hold = min(SELECTION_HOLDOUT_CAP, max(1, int(len(dataset) * SELECTION_HOLDOUT_FRACTION)))
    n_train = len(dataset) - n_hold
    memory = bank.take(bank.sample_ids < n_train)  # sample ids are training-scene ordinals
    if not len(memory):
        raise ConfigError(
            f"addresser selection holds out the last {n_hold} of {len(dataset)} scenes, and the bank keeps no entry "
            "of the others to score them against; give the stage more scenes",
            key="train_manifest",
        )
    holdout = dataset[n_train:]
    dests = holdout.ego_destinations("addresser selection")
    queries = social_encode(feature_nets, holdout)
    n_retrieve = min(config.n_retrieve, len(memory))
    n_predict = min(config.n_predict, n_retrieve)
    seed = config.seed_for("addresser-selection")

    def selection_error(candidate: AddresserNets) -> float:
        return destination_error(
            feature_nets, candidate, memory, queries, dests, n_retrieve, n_predict, seed, holdout.scene_ids
        )

    data = None  # built once, on the first segment, so a stage without epochs never encodes the slice
    rng = np.random.default_rng(config.seed_for("addresser-batches"))
    best = nets.copy()
    best_error = selection_error(nets)
    errors = [(0, best_error)]
    best_epoch = 0
    current = nets.copy()
    epoch_no = 0
    epochs, learning_rate = config.sgd_schedule("addresser")
    for chunk in _segment_epochs(epochs, SELECTION_SEGMENTS):
        if data is None:
            data = addresser_training_data(bank, feature_nets, dataset[:n_train])
        fit_addresser(current, bank, data, config, chunk, learning_rate, rng, epochs_done=epoch_no)
        epoch_no += chunk
        error = selection_error(current)
        errors.append((epoch_no, error))
        if error < best_error:
            best, best_error, best_epoch = current.copy(), error, epoch_no
    report = {"selected_epoch": best_epoch, "holdout_error": best_error, "errors": errors}
    logger.info(
        "addresser selection: kept epoch %d (holdout destination error %.6f) of %s",
        best_epoch,
        best_error,
        [f"{e}:{v:.6f}" for e, v in errors],
    )
    return best, report


def stage_train_addresser(config: Config) -> Path:
    reads: dict[str, str] = {}
    feature_nets = _load_stage(config, STAGE_FEATURES, reads)
    bank = _load_stage(config, STAGE_BANK, reads)
    scenes = _load_scenes(config, "train_manifest")
    # selection reads bank sample ids as ordinals into these scenes
    if dataset_fingerprint(scenes) != bank.meta.source_hash:
        raise DependencyError(
            f"stage '{STAGE_BANK}' was built from other scenes than train_manifest {config.train_manifest} "
            f"now gives; rerun '{STAGE_BANK}'"
        )
    nets = init_addresser_nets(past_dim=config.past_dim, addr_dim=config.addr_dim)
    nets, report = train_addresser_selected(nets, bank, feature_nets, scenes, config)
    meta = {"addr_dim": config.addr_dim, **report}
    return _save_nets(config, STAGE_ADDRESSER, reads, nets, meta)


def stage_train_fulfillment(config: Config) -> Path:
    RunManifest.load(config.out_dir)  # an invalid run manifest fails here, not after training
    nets = train_fulfillment(_load_scenes(config, "train_manifest"), config)
    return _save_nets(config, STAGE_FULFILLMENT, {}, nets, {"past_len": nets.past_len, "future_len": nets.target_len})


def load_model_bundle(config: Config, fixed_cosine: bool = False) -> ModelBundle:
    """Load all four stage artifacts into a ready-to-predict bundle."""
    reads: dict[str, str] = {}
    feature_nets = _load_stage(config, STAGE_FEATURES, reads)
    bank = _load_stage(config, STAGE_BANK, reads)
    addresser_nets = _load_stage(config, STAGE_ADDRESSER, reads)
    fulfill_nets = _load_stage(config, STAGE_FULFILLMENT, reads)
    if fixed_cosine:
        addresser_nets = fixed_cosine_nets(bank.meta.past_dim)
    return ModelBundle(feature_nets=feature_nets, bank=bank, addresser_nets=addresser_nets, fulfill_nets=fulfill_nets)


# ---------------------------------------------------------------------------
# Prediction / evaluation / synthesis entry points
# ---------------------------------------------------------------------------


def run_predict(config: Config, fixed_cosine: bool = False, trace: bool = False) -> Path:
    """Predict every test scene into the files of :func:`write_predictions`."""
    scenes = _load_scenes(config, "test_manifest")
    bundle = load_model_bundle(config, fixed_cosine=fixed_cosine)
    preds = predict_scenes(
        bundle,
        scenes,
        n_retrieve=config.n_retrieve,
        n_predict=config.n_predict,
        seed=config.seed,
        decode_mode=config.decode_mode,
        snap_destination=config.snap_destination,
    )
    count = write_predictions(config.out_dir, preds, trace=trace)
    out_path = Path(config.out_dir) / "predictions.csv"
    logger.info("wrote predictions for %d scenes to %s", count, out_path)
    return out_path


def write_predictions(out_dir, preds: Iterable[ScenePrediction], trace: bool = False) -> int:
    """Stream predictions into predictions.csv, destinations.csv and, with ``trace``, trace.csv.

    predictions.csv rows are scene_id,k,t,x,y in world coordinates, t being
    the 1-based future step. destinations.csv carries the world-frame
    destination proposals with their anchor member counts; trace.csv the
    retrieved addresses, sample ids and scores, best first. Returns the
    number of predictions written. Each file replaces its old version only
    once every prediction is written, so a failure leaves the old files.
    """
    out_dir = Path(out_dir)
    count = 0
    with ExitStack() as stack:
        traj_fh = stack.enter_context(atomic_open(out_dir / "predictions.csv"))
        dest_fh = stack.enter_context(atomic_open(out_dir / "destinations.csv"))
        trace_fh = stack.enter_context(atomic_open(out_dir / "trace.csv")) if trace else None
        traj_fh.write("scene_id,k,t,x,y\n")
        dest_fh.write("scene_id,cluster_index,x,y,member_count\n")
        if trace_fh:
            trace_fh.write("scene_id,rank,address,sample_id,score\n")
        for count, pred in enumerate(preds, start=1):
            for k, trajectory in enumerate(pred.trajectories):
                for t, (x, y) in enumerate(trajectory, start=1):
                    traj_fh.write("%s,%d,%d,%r,%r\n" % (pred.scene_id, k, t, float(x), float(y)))
            members = np.bincount(pred.anchor_assignment, minlength=len(pred.destinations))
            for c, (x, y) in enumerate(pred.destinations):
                dest_fh.write("%s,%d,%r,%r,%d\n" % (pred.scene_id, c, float(x), float(y), int(members[c])))
            if trace_fh:
                for rank, (addr, sid, s) in enumerate(zip(pred.addresses, pred.sample_ids, pred.scores)):
                    trace_fh.write("%s,%d,%d,%d,%r\n" % (pred.scene_id, rank, addr, sid, float(s)))
    return count


def run_eval(config: Config, fixed_cosine: bool = False) -> MetricReport:
    """Evaluate on the test split; write per-scene CSV and key=value summary."""
    scenes = _load_scenes(config, "test_manifest")
    bundle = load_model_bundle(config, fixed_cosine=fixed_cosine)
    units = {"pixel": "pixels", "meter": "meters"}[config.scale]
    report = evaluate(
        bundle,
        scenes,
        n_predict=config.n_predict,
        n_retrieve=config.n_retrieve,
        seed=config.seed,
        decode_mode=config.decode_mode,
        snap_destination=config.snap_destination,
        units=units,
    )
    out_dir = Path(config.out_dir)
    report.to_csv(out_dir / "eval_scenes.csv")
    with atomic_open(out_dir / "eval_summary.txt") as fh:
        fh.write("\n".join(report.summary_lines()) + "\n")
    for line in report.summary_lines():
        print(line)
    return report


def run_synth(config: Config) -> Path:
    """Generate a synthetic split: TSV, manifest, and a mode-label sidecar."""
    scenes = synth_generate(
        config.seed_for("synth"),
        config.synth_scenes,
        past_len=config.past_len,
        future_len=config.future_len,
        n_neighbors=config.synth_neighbors,
    )
    synth_dir = Path(config.out_dir) / "synth"
    synth_dir.mkdir(parents=True, exist_ok=True)
    rows = scenes_to_tracks(scenes)
    tsv_path = synth_dir / "scenes.tsv"
    save_tsv(rows, tsv_path)
    with atomic_open(synth_dir / "manifest.txt") as fh:
        fh.write(f"{tsv_path.name}\n")
    # windowed as the manifest loader windows it: one scene per generated scene,
    # in order, so labels.csv maps each window id to its generator metadata
    windows = build_scenes(*rows, config.past_len, config.future_len, tag=tsv_path.stem)
    with atomic_open(synth_dir / "labels.csv") as fh:
        fh.write("window_scene_id,synth_scene_id\n")
        for window_id, scene_id in zip(windows.scene_ids, scenes.scene_ids, strict=True):
            fh.write(f"{window_id},{scene_id}\n")
    logger.info("wrote %d synthetic scenes to %s", len(scenes), synth_dir)
    return synth_dir
