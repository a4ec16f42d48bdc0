"""Exemplar-free analytic class-incremental learning.

A frozen feature extractor, a fixed random feature expansion, and a
ridge classifier updated in closed form, task by task, without ever
revisiting earlier data, plus a benchmark harness that verifies the
recursive updates coincide with joint training.
"""

from .classifier import (
    AnalyticClassifier,
    LabelMatrix,
    full_afam,
    joint_solve,
    predict,
    prior,
    recalibrate,
    update,
)
from .config import HarnessConfig
from .data import (
    LabeledDataset,
    SynthSpec,
    gen_synth_split,
    load_features,
    load_manifest,
    rectifier_scramble,
    save_features,
    split_tasks,
    write_manifest,
)
from .expansion import ExpansionMap, build_expansion, expand
from .extractor import ExtractorModel, extract, pretrain_extractor
from .harness import (
    AccuracyMatrix,
    ExperimentResult,
    OracleReport,
    TaskData,
    acc_bwt,
    acc_metric,
    build_tasks,
    bwt_metric,
    oracle_check,
    read_grid_csv,
    relative_frobenius,
    results_dict,
    run_experiment,
    tasks_from_manifest,
    write_grid_csv,
)
from .snapshot import (
    SnapshotMeta,
    dump_snapshot,
    load_snapshot,
    read_snapshot,
    save_snapshot,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticClassifier",
    "LabelMatrix",
    "full_afam",
    "joint_solve",
    "predict",
    "prior",
    "recalibrate",
    "update",
    "LabeledDataset",
    "SynthSpec",
    "gen_synth_split",
    "load_features",
    "load_manifest",
    "rectifier_scramble",
    "save_features",
    "split_tasks",
    "write_manifest",
    "ExpansionMap",
    "build_expansion",
    "expand",
    "ExtractorModel",
    "extract",
    "pretrain_extractor",
    "AccuracyMatrix",
    "ExperimentResult",
    "HarnessConfig",
    "OracleReport",
    "TaskData",
    "acc_bwt",
    "acc_metric",
    "build_tasks",
    "bwt_metric",
    "oracle_check",
    "read_grid_csv",
    "relative_frobenius",
    "results_dict",
    "run_experiment",
    "tasks_from_manifest",
    "write_grid_csv",
    "SnapshotMeta",
    "dump_snapshot",
    "load_snapshot",
    "read_snapshot",
    "save_snapshot",
    "__version__",
]
