"""Memory-augmented multimodal trajectory prediction.

Past motion is matched against an explicit bank of (past feature, intention
feature) pairs harvested from training data; the retrieved intentions decode
to destination anchors, the anchors cluster into a handful of proposals, and
a second decoder fills in the trajectory toward each proposal.
"""

from .config import Config, load_config
from .datasets import Scene, SceneSet, build_scenes, load_manifest, load_tsv, save_tsv, synth_generate
from .errors import (
    ConfigError,
    DependencyError,
    FormatError,
    MemtrajError,
    NumericError,
    ParseError,
)
from .evalkit import MetricReport, constant_velocity, evaluate, min_ade, min_fde
from .inference import ModelBundle, ScenePrediction, predict_scene
from .membank import MemoryBankPair, bank_filter, bank_init, bank_load, bank_save
from .pipeline import (
    load_model_bundle,
    run_eval,
    run_predict,
    run_synth,
    stage_build_memory,
    stage_train_addresser,
    stage_train_features,
    stage_train_fulfillment,
)

__version__ = "0.1.0"

__all__ = [
    "Config",
    "ConfigError",
    "DependencyError",
    "FormatError",
    "MemoryBankPair",
    "MemtrajError",
    "MetricReport",
    "ModelBundle",
    "NumericError",
    "ParseError",
    "Scene",
    "ScenePrediction",
    "SceneSet",
    "bank_filter",
    "bank_init",
    "bank_load",
    "bank_save",
    "build_scenes",
    "constant_velocity",
    "evaluate",
    "load_config",
    "load_manifest",
    "load_model_bundle",
    "load_tsv",
    "min_ade",
    "min_fde",
    "predict_scene",
    "run_eval",
    "run_predict",
    "run_synth",
    "save_tsv",
    "stage_build_memory",
    "stage_train_addresser",
    "stage_train_features",
    "stage_train_fulfillment",
    "synth_generate",
]
