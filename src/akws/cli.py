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
wider than the features it expands), a ``gen`` data or split flag out
of range (``SynthSpec`` and ``check_split`` name the config key, as
``base_count`` for ``--base``; only a ``--per-step`` that does not divide
the classes left when ``--steps`` is omitted names the flag), a manifest
or feature CSV that does not parse, manifest contents a run cannot use
(a class in two tasks, files of different widths, a label outside its
task's classes, a train file without rows), an input file that is not
UTF-8 text, an expansion whose packed state (E(E+1)/2 numbers) alone
exceeds physical memory, or whose state and expanded test rows
(m_test x E) together exceed it, synthetic data whose train and test
features exceed it, or data whose first task has no test rows (so its
accuracy, and ACC, are undefined) is invalid input; a data file that
cannot be opened under ``run`` or ``oracle-check``, a numerical failure
such as a Woodbury kernel that is not positive definite, or running out
of memory is a runtime failure. No command mutates its inputs.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

from .config import ManifestDataConfig, RunConfig, SplitConfig, SynthDataConfig, load_config, parse_config
from .data import gen_synth_split, save_features, split_tasks, write_manifest
from .errors import AkwsError, ConfigError, MetricUndefinedError, ParseError
from .expansion import ACTIVATIONS
from .harness import (
    acc_bwt,
    build_tasks,
    oracle_check,
    read_grid_csv,
    results_dict,
    run_experiment,
    tasks_from_manifest,
    write_grid_csv,
)
from .snapshot import SnapshotMeta, save_snapshot

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
        cmd.add_argument("--activation", choices=ACTIVATIONS, default=None)
        if name == "run":
            cmd.add_argument("--out", default="out")

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


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _synth_tasks(data: SynthDataConfig, split: SplitConfig):
    """Draw synthetic train and test sets and slice them into the split's tasks."""
    order = split_tasks(range(data.classes), **asdict(split))  # gen's split check, before the memory check
    need = 8 * data.classes * (data.per_class + data.test_per_class) * data.dim
    if need > _physical_memory():  # refused before any draw
        raise ConfigError(f"its train and test features need {need} bytes, more than physical memory", field="data")
    train, test = gen_synth_split(data, data.test_per_class)
    return build_tasks(train, test, order)


def _assemble_tasks(cfg: RunConfig):
    h = cfg.harness
    e = h.expansion_size
    state = 8 * (e * (e + 1) // 2)  # the packed E x E state
    if state > _physical_memory():  # refused before any data is read or drawn
        raise ConfigError(f"its {e} x {e} state needs {state} bytes, more than physical memory", field="expansion")
    d = cfg.data
    if isinstance(d, ManifestDataConfig):
        tasks = tasks_from_manifest(d.path)
    else:
        tasks = _synth_tasks(d, cfg.split)
    # the run holds every task's expanded test rows in one m x E buffer next to the state
    m = sum(task.test.n for task in tasks)
    need = state + 8 * m * e
    if need > _physical_memory():  # refused before the run allocates either
        raise ConfigError(
            f"its {e} x {e} state and {m} expanded test rows need {need} bytes, more than physical memory",
            field="expansion",
        )
    if tasks:  # an empty manifest fails in the harness
        width = h.extractor_hidden if h.use_extractor else tasks[0].train.dim
        if h.expansion_size <= width:
            raise ConfigError(f"must exceed the width of the features it expands ({width})", field="expansion")
    return tasks


def _cmd_gen(args) -> int:
    base = args.classes // 2 if args.base is None else args.base
    steps = args.steps
    if steps is None:  # derived here, so this error is gen's own; check_split judges every split
        left = args.classes - base
        per_step = max(args.per_step, 1)  # a --per-step below 1 fails in check_split
        if base >= 1 and left > 0 and left % per_step:  # a base out of range fails in check_split
            default = " (the default, half of --classes)" if args.base is None else ""
            raise ConfigError(
                f"--per-step {args.per_step} must divide the {left} classes --classes {args.classes} "
                f"leaves after --base {base}{default}"
            )
        steps = max(left, 0) // per_step  # a base above --classes leaves no steps: the counts fall short
    test_per_class = args.test_per_class
    if test_per_class is None:
        test_per_class = max(1, args.per_class // 5)
    data = SynthDataConfig(
        classes=args.classes,
        per_class=args.per_class,
        test_per_class=test_per_class,
        dim=args.dim,
        separation=args.separation,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    tasks = _synth_tasks(data, SplitConfig(base, steps, args.per_step, args.seed))
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
    e, x = result.expansion, result.extractor
    layer = (x.w1, x.b1) if x is not None else (None, None)
    meta = SnapshotMeta(e.dim, e.seed, e.activation, *layer)
    save_snapshot(os.path.join(args.out, "snapshot.bin"), result.classifier, meta)
    print(f"ACC={doc['acc']!r} BWT={doc['bwt']!r} TT={doc['tt_mean']!r}")
    return 0


def _cmd_oracle_check(args) -> int:
    cfg = _resolve_config(args)
    tasks = _assemble_tasks(cfg)
    report = oracle_check(tasks, cfg.harness)
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
    acc, bwt, bwt_undefined = acc_bwt(read_grid_csv(args.grid))
    print(f"ACC={acc!r} BWT={bwt!r}" + (" BWT_UNDEFINED=1" if bwt_undefined else ""))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "run": _cmd_run,
        "oracle-check": _cmd_oracle_check,
        "metrics": _cmd_metrics,
    }
    invalid = (ConfigError, ParseError, MetricUndefinedError)  # exit 2 under every command
    if args.command == "metrics":  # a grid file it cannot open is its invalid input too
        invalid += (OSError,)
    try:
        return handlers[args.command](args)
    except invalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AkwsError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)  # a MemoryError may carry no message
        return 1


if __name__ == "__main__":
    sys.exit(main())
