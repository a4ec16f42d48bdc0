"""Command-line entry point.

Commands:
    gen           write synthetic per-task feature CSVs plus a manifest
    run           execute an experiment; emits results JSON, grid CSV,
                  classifier snapshot, and a one-line summary on stdout
    oracle-check  run the same task loop as ``run`` and compare it with
                  the joint solution after every task
    metrics       recompute the accuracy metrics from a grid CSV

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration or
input. A config that breaks the schema (a negative seed, a zero data
dimension, a split that does not cover the classes, an expansion no
wider than the features it expands), a manifest or feature CSV that
does not parse, or data whose first task has no test rows (so its
accuracy, and ACC, are undefined) is invalid input; a data file that
cannot be opened under ``run`` or ``oracle-check``, or a numerical
failure such as a Woodbury kernel that is not positive definite, is a
runtime failure. No command mutates its inputs.
"""

import argparse
import json
import os
import sys

from .config import ManifestDataConfig, RunConfig, load_config, parse_config
from .data import SynthSpec, gen_synth_split, save_features, write_manifest
from .errors import AkwsError, ConfigError, InvalidSplitError, MetricUndefinedError, ParseError
from .harness import (
    acc_metric,
    build_tasks,
    bwt_metric,
    oracle_check,
    read_grid_csv,
    results_dict,
    run_experiment,
    split_tasks,
    tasks_from_manifest,
    write_grid_csv,
)
from .snapshot import save_snapshot

ORACLE_TOLERANCE = 1e-9


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="akws")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate synthetic task data and a manifest")
    gen.add_argument("--classes", type=int, default=10)
    gen.add_argument("--per-class", type=int, default=100)
    gen.add_argument("--test-per-class", type=int, default=None)
    gen.add_argument("--dim", type=int, default=16)
    gen.add_argument("--separation", type=float, default=6.0)
    gen.add_argument("--noise", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--base", type=int, default=None, help="base task class count")
    gen.add_argument("--steps", type=int, default=None, help="incremental step count")
    gen.add_argument("--per-step", type=int, default=1, help="classes per incremental step")
    gen.add_argument("--out", required=True)

    for name in ("run", "oracle-check"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="JSON config file")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--gamma", type=float, default=None)
        cmd.add_argument("--expansion", type=int, default=None)
        cmd.add_argument("--activation", choices=("identity", "relu"), default=None)
        if name == "run":
            cmd.add_argument("--out", default="out")
        else:
            cmd.add_argument("--inject-noise", type=float, default=0.0)

    metrics = sub.add_parser("metrics", help="recompute metrics from a grid CSV")
    metrics.add_argument("grid")
    return parser


def _resolve_config(args) -> RunConfig:
    doc = load_config(args.config) if args.config else {}
    for key in ("seed", "gamma", "expansion", "activation"):
        val = getattr(args, key, None)
        if val is not None:
            doc[key] = val
    return parse_config(doc)


def _assemble_tasks(cfg: RunConfig):
    d = cfg.data
    if isinstance(d, ManifestDataConfig):
        tasks = tasks_from_manifest(d.path)
    else:
        spec = SynthSpec(
            n_classes=d.classes,
            samples_per_class=d.per_class,
            raw_dim=d.dim,
            cluster_separation=d.separation,
            noise_sigma=d.noise_sigma,
            seed=d.seed,
        )
        train, test = gen_synth_split(spec, d.test_per_class)
        split = split_tasks(
            range(d.classes),
            cfg.split.base_count,
            cfg.split.step_count,
            cfg.split.classes_per_step,
            cfg.split.seed,
        )
        tasks = build_tasks(train, test, split)
    h = cfg.harness
    if tasks:  # an empty manifest fails in the harness
        width = h.extractor_hidden if h.use_extractor else tasks[0].train.dim
        if h.expansion_size <= width:
            raise ConfigError(f"must exceed the width of the features it expands ({width})", field="expansion")
    return tasks


def _cmd_gen(args) -> int:
    classes = args.classes
    base = args.base if args.base is not None else classes // 2
    per_step = args.per_step
    if args.steps is not None:
        steps = args.steps
    else:
        remaining = classes - base
        if per_step < 1 or remaining % per_step:
            raise InvalidSplitError(f"{remaining} leftover classes not divisible by {per_step}")
        steps = remaining // per_step
    spec = SynthSpec(
        n_classes=classes,
        samples_per_class=args.per_class,
        raw_dim=args.dim,
        cluster_separation=args.separation,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    test_per_class = args.test_per_class or max(1, args.per_class // 5)
    split = split_tasks(range(classes), base, steps, per_step, args.seed)
    train, test = gen_synth_split(spec, test_per_class)
    tasks = build_tasks(train, test, split)
    os.makedirs(args.out, exist_ok=True)
    entries = []
    for task in tasks:
        train_name = f"task_{task.task_id}_train.csv"
        test_name = f"task_{task.task_id}_test.csv"
        save_features(task.train, os.path.join(args.out, train_name))
        save_features(task.test, os.path.join(args.out, test_name))
        entries.append(
            {"id": task.task_id, "classes": list(task.classes), "train": train_name, "test": test_name}
        )
    manifest_path = os.path.join(args.out, "manifest.json")
    write_manifest(manifest_path, entries)
    print(manifest_path)
    return 0


def _cmd_run(args) -> int:
    cfg = _resolve_config(args)
    tasks = _assemble_tasks(cfg)
    result = run_experiment(tasks, cfg.harness)
    os.makedirs(args.out, exist_ok=True)
    doc = results_dict(result, cfg.to_dict())
    with open(os.path.join(args.out, "results.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_grid_csv(os.path.join(args.out, "grid.csv"), result.accuracy)
    save_snapshot(os.path.join(args.out, "snapshot.bin"), result.classifier, result.snapshot_meta)
    print(f"ACC={doc['acc']!r} BWT={doc['bwt']!r} TT={doc['tt_mean']!r}")
    return 0


def _cmd_oracle_check(args) -> int:
    cfg = _resolve_config(args)
    tasks = _assemble_tasks(cfg)
    report = oracle_check(tasks, cfg.harness, inject_noise=args.inject_noise)
    for t, (dev, agree) in enumerate(zip(report.weight_deviation, report.argmax_agreement)):
        print(f"prefix {t}: deviation={dev:.3e} agreement={agree:.6f}")
    ok = report.max_deviation <= ORACLE_TOLERANCE and report.min_agreement == 1.0
    if ok:
        print(f"ORACLE PASS max_deviation={report.max_deviation:.3e} agreement={report.min_agreement:.6f}")
        return 0
    print(
        f"ORACLE FAIL worst_prefix={report.worst_prefix()} "
        f"max_deviation={report.max_deviation:.3e} agreement={report.min_agreement:.6f}"
    )
    return 1


def _cmd_metrics(args) -> int:
    accuracy = read_grid_csv(args.grid)
    acc = acc_metric(accuracy)
    if accuracy.a_vector.size < 2:
        print(f"ACC={acc!r} BWT=0.0 BWT_UNDEFINED=1")
    else:
        print(f"ACC={acc!r} BWT={bwt_metric(accuracy)!r}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "run": _cmd_run,
        "oracle-check": _cmd_oracle_check,
        "metrics": _cmd_metrics,
    }
    validation = {
        "gen": (ConfigError, InvalidSplitError, ValueError),
        "run": (ConfigError, InvalidSplitError, ParseError, MetricUndefinedError),
        "oracle-check": (ConfigError, InvalidSplitError, ParseError, MetricUndefinedError),
        "metrics": (ConfigError, ParseError, MetricUndefinedError, OSError),
    }[args.command]
    try:
        return handlers[args.command](args)
    except validation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AkwsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
