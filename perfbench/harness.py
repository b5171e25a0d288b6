"""One workload run through memtraj's public entry points, with output checks.

The user path, in order:

1. write the seeded TSV inputs and manifests (not timed);
2. ``train_s``: the four ``pipeline.stage_*`` calls off the manifests, as the
   CLI runs them (each reloads the training manifest and writes artifacts);
3. ``scene_ms_p50`` / ``scene_ms_p99``: a closed loop with one caller that
   calls ``inference.predict_scene`` once per test scene, in pairs of passes
   over the split until at least ``seconds`` have passed. A scene's latency
   in a pair is the faster of its two calls. On a 2-vCPU virtual machine
   shared with other tenants, speed changes by a quarter from one second to
   the next and the per-scene latencies of two passes were uncorrelated
   (r = -0.04 on ``train``), so the tail of single calls measured the other
   tenants rather than memtraj. Each pair gives one latency per scene, so at
   least 1000 samples and at least 10 beyond p99;
4. ``eval_scenes_per_s``: ``evalkit.evaluate`` over the whole test split,
   between the two passes of each pair; median over pairs;
5. ``setup_s``: load the test manifest and ``pipeline.load_model_bundle``;
   once before each pass, before evaluate and after the last pass, median
   reported. Each phase uses what the set-up before it loaded.

Every call goes through the module attribute (``pipeline.stage_train_features``
and so on) so the traced run's wrappers see it.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from memtraj import datasets, evalkit, inference, pipeline
from memtraj.config import Config

import workloads

PROGRAM_SEED = 1  # memtraj's own seed; the workload seed only shapes the inputs
STAGES = ("stage_train_features", "stage_build_memory", "stage_train_addresser", "stage_train_fulfillment")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at least ``(1 - q) * n`` samples lie above it when ``q < 1``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run(workload: workloads.Workload, seed: int, seconds: float, work_dir: Path, mark=None) -> dict:
    """Run one workload; return metrics, check results and the prediction digest.

    ``mark(phase)`` is called as each phase (train, setup, evaluate, online)
    ends, so a traced run can split layer time by phase.
    """
    mark = mark or (lambda phase: None)
    train_manifest, test_manifest = workload.make_inputs(seed, work_dir / "data")
    config = Config(
        **workloads.COMMON_CONFIG,
        **workload.config,
        seed=PROGRAM_SEED,
        train_manifest=str(train_manifest),
        val_manifest=str(test_manifest),
        test_manifest=str(test_manifest),
        out_dir=str(work_dir / "out"),
    )
    problems: list[str] = []

    gc.collect()
    start = perf_counter()
    for stage in STAGES:
        getattr(pipeline, stage)(config)
    train_s = perf_counter() - start
    mark("train")

    setup_times: list[float] = []

    def setup():
        """One timed set-up; they are spread over the run so their median does not hang on one slow second."""
        gc.collect()
        start = perf_counter()
        scenes = datasets.load_manifest(
            config.test_manifest,
            past_len=config.past_len,
            future_len=config.future_len,
            stride=config.window_stride,
            max_neighbors=config.max_neighbors,
        )
        bundle = pipeline.load_model_bundle(config)
        setup_times.append(perf_counter() - start)
        mark("setup")
        return scenes, bundle

    def evaluate(scenes, bundle):
        gc.collect()
        start = perf_counter()
        report = evalkit.evaluate(
            bundle,
            scenes,
            n_predict=config.n_predict,
            n_retrieve=config.n_retrieve,
            seed=config.seed,
            decode_mode=config.decode_mode,
            snap_destination=config.snap_destination,
            units="meters",
        )
        eval_s = perf_counter() - start
        mark("evaluate")
        return report, eval_s

    latencies: list[float] = []
    digests: list[str] = []
    eval_times: list[float] = []
    attempted = failed = 0
    report = first_pass = None
    loop_start = perf_counter()
    while not eval_times or perf_counter() - loop_start < seconds:
        pair = []
        for half in range(2):
            if half == 1:
                # Evaluate between a pair's passes: a scene's two calls are
                # further apart and the samples span more time.
                again, eval_s = evaluate(*setup())
                eval_times.append(eval_s)
                if report is None:
                    report = again
                elif again.rows != report.rows:
                    problems.append(f"evaluate {len(eval_times)} differs from evaluate 1")
            scenes, bundle = setup()
            times, digest, raised, checked = online_pass(bundle, scenes, config)
            mark("online")
            pair.append(times)
            digests.append(digest)
            attempted += len(scenes)
            failed += raised
            if first_pass is None:
                first_pass = checked
        fastest = np.minimum(*pair)
        latencies += fastest[np.isfinite(fastest)].tolist()
    setup()
    if report.n_scenes != len(scenes):
        problems.append(f"evaluate reported {report.n_scenes} scenes for {len(scenes)}")
    for row, (scene_id, fde, wrong) in zip(report.rows, first_pass):
        problems += wrong
        if not wrong and (fde != row.min_fde or row.scene_id != scene_id):
            problems.append(f"{scene_id}: per-scene min FDE {fde!r} != evaluate's {row.min_fde!r}")
    if any(d != digests[0] for d in digests):
        problems.append(f"the {len(digests)} passes did not all give the same predictions")
    if failed:
        problems.append(f"{failed} of {attempted} predict_scene calls raised")
    if not latencies:
        latencies.append(float("nan"))

    bank_path = Path(config.out_dir) / "bank" / "bank.mtbk"
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_s": (train_s, "s"),
        "eval_scenes_per_s": (len(scenes) / statistics.median(eval_times), "scenes/s"),
        "scene_ms_p50": (1e3 * percentile(latencies, 0.50), "ms"),
        "scene_ms_p99": (1e3 * percentile(latencies, 0.99), "ms"),
        "min_ade_k": (report.min_ade_k, "m"),
        "min_fde_k": (report.min_fde_k, "m"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": digests[0],
        "timings": {
            "setup_s": setup_times,
            "eval_s": eval_times,
            "passes": len(digests),
            "scene_samples": len(latencies),
            "scene_ms_max": 1e3 * max(latencies),
        },
        "inputs": {
            "test_windows": len(scenes),
            "test_neighbors_mean": float(np.mean([s.n_neighbors for s in scenes])),
            "bank_entries_kept": len(bundle.bank),
            "bank_file_bytes": bank_path.stat().st_size,
            "L": config.n_retrieve,
            "K": config.n_predict,
        },
    }


def online_pass(bundle, scenes, config: Config):
    """``predict_scene`` once per scene, in order, each call timed.

    Returns per-scene seconds (inf where the call raised), the SHA-256 of
    every trajectory and destination, the number of calls that raised, and
    per scene ``(scene_id, min FDE, failed output checks)`` for comparing
    with ``evaluate``.
    """
    times = np.full(len(scenes), np.inf)
    digest = hashlib.sha256()
    raised = 0
    checked = []
    gc.collect()
    for i, scene in enumerate(scenes):
        start = perf_counter()
        try:
            pred = inference.predict_scene(
                bundle,
                scene,
                n_retrieve=config.n_retrieve,
                n_predict=config.n_predict,
                seed=inference.scene_seed(config.seed, i),
                decode_mode=config.decode_mode,
                snap_destination=config.snap_destination,
            )
        except Exception:  # a failed scene is counted, reported and the loop goes on
            raised += 1
            if raised == 1:
                traceback.print_exc()
            checked.append((scene.scene_id, None, ["predict_scene raised"]))
            continue
        times[i] = perf_counter() - start
        digest.update(np.ascontiguousarray(pred.trajectories, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(pred.destinations, dtype="<f8").tobytes())
        wrong = check_prediction(pred, scene, config)
        fde = None if wrong else evalkit.min_fde(pred.trajectories, scene.ego_future)
        checked.append((scene.scene_id, fde, wrong))
    return times, digest.hexdigest(), raised, checked


def check_prediction(pred, scene, config: Config) -> list[str]:
    """K finite trajectories of shape (future_len, 2) and K finite destinations."""
    k, steps = config.n_predict, config.future_len
    problems = []
    if pred.trajectories.shape != (k, steps, 2) or not np.all(np.isfinite(pred.trajectories)):
        problems.append(f"{scene.scene_id}: trajectories {pred.trajectories.shape} not {k} finite ({steps}, 2)")
    if pred.destinations.shape != (k, 2) or not np.all(np.isfinite(pred.destinations)):
        problems.append(f"{scene.scene_id}: destinations {pred.destinations.shape} not {k} finite (2,)")
    return problems
