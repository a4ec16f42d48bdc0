#!/usr/bin/env python3
"""Benchmark of ``akws run``: fresh processes in a closed loop on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``stream``, ``bigbase``, ``features`` or ``all`` (each in turn).
Run it from anywhere inside a source checkout: the program is imported
from the checkout's ``src/`` directory and nothing is installed.

One run builds the workload's inputs from the seed, outside all timing,
and solves the joint ridge problem once over the same expanded batches.
That solution is the oracle. It then starts one ``akws run`` process at a
time, each only after the previous one has exited and its outputs have
been checked, until SECONDS have passed. launch.py starts each one and
reads its wall time and peak RSS. A process fails its check
unless it exits 0, its results.json ACC equals the ACC recomputed from
its grid.csv, its snapshot.bin loads, and the snapshot's predictions
agree with the oracle's on every test row.

With ``--trace 0`` every process carries only a set-up probe and the run
reports the end-to-end metrics of BENCHMARK.json. With ``--trace 1``
processes alternate between untraced and traced (see child.py) and the
run reports the per-layer metrics. After the timed loop of an untraced
run, SETUP_REPEATS more processes each stop at their first classifier
fit, so that set-up time is a median over more samples. The last line of
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# BLAS reads its thread count when numpy loads, so this precedes the import;
# every process the benchmark starts inherits the same environment.
BLAS_THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# A run must end within 180 s; no process is started that could run past this.
DEADLINE_S = 170.0
SETUP_REPEATS = 4

GAMMA = 0.1
ACTIVATION = "relu"
EPOCHS = 20
LR = 0.05
SEPARATION = 6.0
NOISE = 1.0
SGD_BATCH = 32  # mini-batch size of akws.extractor


@dataclass(frozen=True)
class Workload:
    source: str  # "synth": generated in the process; "manifest": per-task CSVs
    classes: int
    per_class: int
    test_per_class: int
    dim: int
    base: int
    steps: int
    per_step: int
    expansion: int
    hidden: int
    dominant: tuple[str, ...]  # layers expected to take the most time


WORKLOADS = {
    # 50 two-class updates of 100 rows at E=2048 (n << E): the Woodbury
    # update's E^2 n products dominate; set-up and the first fit are small.
    "stream": Workload("synth", 102, 50, 10, 16, 2, 50, 2, 2048, 32, ("classifier.update",)),
    # One 3200-row first fit at E=4096: recalibrate, the 262k-draw PRNG
    # matrix, a 135 MB snapshot and the peak memory dominate.
    "bigbase": Workload("synth", 18, 200, 50, 16, 16, 2, 1, 4096, 64, ("classifier.recalibrate",)),
    # Per-task d=40 CSVs, 80 one-class steps at small E=512: the only
    # workload where CSV parsing and the T^2/2 evaluation calls matter.
    "features": Workload(
        "manifest", 102, 200, 50, 40, 22, 80, 1, 512, 32,
        ("classifier.predict", "data.load_features", "classifier.update"),
    ),
}

# Leaf layers ranked when confirming a workload's dominant layers.
LEAF_LAYERS = (
    "classifier.update", "classifier.recalibrate", "classifier.predict", "classifier.labels",
    "data.load_features", "data.gen", "extractor.pretrain", "extractor.extract",
    "prng.normal_matrix", "expansion.build", "expansion.expand", "snapshot.save",
    "harness.write_grid", "harness.self", "cli.self", "cli.import",
)


def environment(seed: int) -> dict:
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = out.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "seed": seed,
    }


class Inputs:
    """A workload's config file and tasks, and the oracle over them."""

    def __init__(self, name: str, wl: Workload, seed: int, work: Path):
        from akws import (
            LabelMatrix, SynthSpec, build_expansion, build_tasks, expand, extract,
            gen_synth_split, joint_solve, predict, pretrain_extractor, split_tasks,
            tasks_from_manifest,
        )
        import akws.cli

        rng = random.Random(f"{name}:{seed}")
        data_seed, run_seed = rng.randrange(2**31), rng.randrange(2**31)
        doc = {
            "gamma": GAMMA, "expansion": wl.expansion, "activation": ACTIVATION, "seed": run_seed,
            "extractor": {"enabled": True, "hidden": wl.hidden, "epochs": EPOCHS, "lr": LR},
        }
        if wl.source == "synth":
            doc["data"] = {
                "kind": "synth", "classes": wl.classes, "per_class": wl.per_class,
                "test_per_class": wl.test_per_class, "dim": wl.dim, "separation": SEPARATION,
                "noise_sigma": NOISE, "seed": data_seed,
            }
            doc["split"] = {
                "base_count": wl.base, "step_count": wl.steps,
                "classes_per_step": wl.per_step, "seed": data_seed,
            }
            spec = SynthSpec(wl.classes, wl.per_class, wl.dim, SEPARATION, NOISE, data_seed)
            train, test = gen_synth_split(spec, wl.test_per_class)
            split = split_tasks(range(wl.classes), wl.base, wl.steps, wl.per_step, data_seed)
            tasks = build_tasks(train, test, split)
        else:
            data = work / "data"
            gen = [
                "gen", "--classes", wl.classes, "--per-class", wl.per_class,
                "--test-per-class", wl.test_per_class, "--dim", wl.dim, "--separation", SEPARATION,
                "--noise", NOISE, "--seed", data_seed, "--base", wl.base, "--steps", wl.steps,
                "--per-step", wl.per_step, "--out", data,
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                if akws.cli.main([str(a) for a in gen]) != 0:
                    raise RuntimeError("akws gen failed")
            doc["data"] = {"kind": "manifest", "path": str(data / "manifest.json")}
            tasks = tasks_from_manifest(data / "manifest.json")
        self.config = work / "config.json"
        self.config.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        self.tasks = tasks

        extractor, _ = pretrain_extractor(tasks[0].train, hidden=wl.hidden, epochs=EPOCHS, lr=LR, seed=run_seed)
        expansion = build_expansion(extractor.hidden_width, wl.expansion, run_seed, ACTIVATION)

        def features(x):
            return expand(extract(extractor, x), expansion)

        batches = [
            (features(t.train.features), LabelMatrix.from_labels(t.train.labels, class_ids=t.classes))
            for t in tasks
        ]
        start = time.perf_counter()
        joint = joint_solve(batches, GAMMA)
        self.joint_solve_s = time.perf_counter() - start
        del batches
        self.weights = joint.weights
        self.classes = joint.column_classes()
        self.x_test = np.vstack([features(t.test.features) for t in tasks])
        self.y_joint = predict(joint, self.x_test)


def computed_counts(wl: Workload, tasks) -> dict:
    """Work implied by the shapes alone; identical on every run of a seed.

    Flops count 2mnk per matrix product and n^3/3 per Cholesky factor, for
    the products of the explicit-inverse recalibrate and the Woodbury update
    in akws.classifier. The model is fixed: it moves only with the shapes.
    """
    e = wl.expansion
    n0 = tasks[0].train.n
    c = len(tasks[0].classes)
    recal = 2 * n0 * e * e + e**3 / 3 + 2 * n0 * e * c + 2 * e * e * c + 2 * e**3
    upd = 0.0
    for task in tasks[1:]:
        n, k = task.train.n, len(task.classes)
        upd += 6 * n * e * e + 4 * n * n * e + n**3 / 3 + 4 * n * e * c + 2 * n * e * k
        c += k
    return {
        "prng.draws": wl.hidden * e,
        "extractor.sgd_steps": EPOCHS * math.ceil(n0 / SGD_BATCH),
        "classifier.recalibrate_gflop": recal / 1e9,
        "classifier.update_gflop": upd / 1e9,
        "classifier.state_bytes": 8 * (e * e + e * c + c),
    }


@dataclass
class Sample:
    """One ``akws run`` process: its measurements and the check's verdict."""

    mode: str  # "run", "traced", or "setup" (stopped at the first fit)
    wall_s: float
    rss_mb: float
    setup_s: float | None = None
    tt: list = field(default_factory=list)
    acc: float | None = None
    oracle_dev: float | None = None
    load_s: float | None = None
    snapshot_bytes: int = 0
    record: dict = field(default_factory=dict)
    error: str | None = None


def run_once(inputs: Inputs, out: Path, mode: str, timeout_s: float) -> Sample:
    """Start one process in the fresh directory ``out``, check it, then remove ``out``."""
    out.mkdir()
    try:
        return _run_in(inputs, out, mode, timeout_s)
    finally:
        shutil.rmtree(out)


def _run_in(inputs: Inputs, out: Path, mode: str, timeout_s: float) -> Sample:
    cmd = [sys.executable, str(HERE / "launch.py"), str(out / "launch.json"), str(timeout_s), "--"]
    cmd += [sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--record", str(out / "record.json")]
    cmd += {"run": [], "traced": ["--trace"], "setup": ["--stop-at-fit"]}[mode]
    cmd += ["--", "run", "--config", str(inputs.config), "--out", str(out)]
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        subprocess.run(cmd, stdout=so, stderr=se, cwd=out, check=True)
    run = json.loads((out / "launch.json").read_text(encoding="utf-8"))
    sample = Sample(
        mode=mode, wall_s=(run["end_ns"] - run["launch_ns"]) / 1e9, rss_mb=run["maxrss_kb"] / 1024
    )
    if run["exit_code"] != 0:
        err = (out / "stderr.txt").read_text(errors="replace").strip().splitlines()
        sample.error = f"exit code {run['exit_code']}: {err[-1] if err else ''}"
    elif mode == "setup":
        first_fit = json.loads((out / "record.json").read_text(encoding="utf-8"))["first_fit_ns"]
        if first_fit is None:
            sample.error = "no classifier fit was reached"
        else:
            sample.setup_s = (first_fit - run["launch_ns"]) / 1e9
    else:
        sample.error = check(inputs, out, sample, run["launch_ns"])
    return sample


def check(inputs: Inputs, out: Path, sample: Sample, launch_ns: int) -> str | None:
    """Fill the sample from the process's outputs; return why they are wrong, if they are."""
    from akws import acc_metric, predict, read_grid_csv, read_snapshot, relative_frobenius
    from akws.errors import AkwsError

    try:
        sample.record = json.loads((out / "record.json").read_text(encoding="utf-8"))
        if sample.record["first_fit_ns"] is not None:
            sample.setup_s = (sample.record["first_fit_ns"] - launch_ns) / 1e9
        results = json.loads((out / "results.json").read_text(encoding="utf-8"))
        sample.tt = [float(v) for v in results["tt"]]
        sample.acc = float(results["acc"])
        if acc_metric(read_grid_csv(out / "grid.csv")) != sample.acc:
            return "results.json ACC differs from the ACC recomputed from grid.csv"
        snapshot = out / "snapshot.bin"
        sample.snapshot_bytes = snapshot.stat().st_size
        start = time.perf_counter()
        clf, _ = read_snapshot(snapshot)
        sample.load_s = time.perf_counter() - start
    except (OSError, ValueError, KeyError, TypeError, AkwsError) as exc:
        return f"{type(exc).__name__}: {exc}"
    e, c = clf.weights.shape
    layout = 45 + 8 * c + 8 * (e * c + e * e)  # snapshot.py v1: header, registry, f64 W and A
    with open(snapshot, "rb") as fh:
        version = int.from_bytes(fh.read(8)[4:], "little")
    if version == 1 and sample.snapshot_bytes != layout:
        return f"snapshot.bin has {sample.snapshot_bytes} bytes, its v1 layout {layout}"
    cols = clf.column_classes()
    if sorted(cols) != sorted(inputs.classes):
        return "snapshot classes differ from the joint solution's"
    order = [cols.index(c) for c in inputs.classes]
    sample.oracle_dev = relative_frobenius(clf.weights[:, order], inputs.weights)
    agreement = float(np.mean(predict(clf, inputs.x_test) == inputs.y_joint))
    if agreement != 1.0:
        return f"argmax agreement with joint_solve is {agreement!r}, not 1.0"
    return None


def layer_metrics(record: dict) -> dict:
    """Per-layer totals, self times and counts of one traced process."""
    spans = record["spans"]
    dur = [(s[2] - s[1]) / 1e9 for s in spans]
    inner = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            inner[s[3]] += d
    total, own = defaultdict(float), defaultdict(float)
    calls, rows, nbytes = defaultdict(int), defaultdict(int), defaultdict(int)
    for s, d, i in zip(spans, dur, inner):
        total[s[0]] += d
        own[s[0]] += d - i
        calls[s[0]] += 1
        rows[s[0]] += s[4]
        nbytes[s[0]] += s[5]
    return {
        "classifier.update_s": total["classifier.update"],
        "classifier.update_calls": calls["classifier.update"],
        "classifier.update_rows": rows["classifier.update"],
        "classifier.recalibrate_s": total["classifier.recalibrate"],
        "classifier.predict_s": total["classifier.predict"],
        "classifier.predict_calls": calls["classifier.predict"],
        "classifier.predict_rows": rows["classifier.predict"],
        "classifier.labels_s": total["classifier.labels"],
        "data.assemble_s": total["data.gen"] + total["data.load_tasks"],
        "data.gen_s": total["data.gen"],
        "data.load_features_s": total["data.load_features"],
        "data.load_rows": rows["data.load_features"],
        "data.load_mb": nbytes["data.load_features"] / 1e6,
        "extractor.pretrain_s": total["extractor.pretrain"],
        "extractor.extract_s": total["extractor.extract"],
        "prng.normal_matrix_s": total["prng.normal_matrix"],
        "expansion.build_s": own["expansion.build"],
        "expansion.expand_s": total["expansion.expand"],
        "expansion.expand_rows": rows["expansion.expand"],
        "snapshot.save_s": total["snapshot.save"],
        "harness.run_s": total["harness.run"],
        "harness.self_s": own["harness.run"],
        "harness.write_grid_s": total["harness.write_grid"],
        "cli.import_s": record["import_ns"] / 1e9,
        "cli.self_s": own["cli.main"],
    }


def median(values):
    return statistics.median(values) if values else None


def end_to_end(ok: list) -> tuple[dict, dict]:
    """Metric values and their sample counts from the checked, untraced processes."""
    plain = [s for s in ok if s.mode == "run"]
    setups = [s.setup_s for s in ok if s.mode != "traced" and s.setup_s is not None]
    tt = [v for s in plain for v in s.tt]
    devs = [s.oracle_dev for s in plain]
    values = {
        "wall_s": median([s.wall_s for s in plain]),
        "setup_s": median(setups),
        "task_p50_ms": 1e3 * float(np.median(tt)) if tt else None,
        # p90: the highest percentile with ten samples beyond it on stream's
        # 100 pooled times; features' times are bimodal around p80.
        "task_p90_ms": 1e3 * float(np.percentile(tt, 90)) if tt else None,
        "peak_rss_mb": median([s.rss_mb for s in plain]),
        "acc": median([s.acc for s in plain]),
        # log scale: the deviation is roundoff and varies by factors between inputs
        "oracle_digits": -math.log10(max(median(devs), 2.0**-52)) if devs else None,
    }
    n = len(plain)
    samples = {k: n for k in values}
    samples["setup_s"] = len(setups)
    samples["task_p50_ms"] = samples["task_p90_ms"] = len(tt)
    return values, samples


def per_layer(ok: list, inputs: Inputs, wl: Workload) -> tuple[dict, dict]:
    traced = [s for s in ok if s.mode == "traced"]
    plain = [s for s in ok if s.mode == "run"]
    per_process = [layer_metrics(s.record) for s in traced]
    values = {k: median([m[k] for m in per_process]) for k in (per_process[0] if per_process else {})}
    updates = [
        (sp[2] - sp[1]) / 1e6 for s in traced for sp in s.record["spans"] if sp[0] == "classifier.update"
    ]
    values["classifier.update_p50_ms"] = float(np.median(updates)) if updates else 0.0
    values.update(computed_counts(wl, inputs.tasks))
    values["snapshot.bytes"] = median([s.snapshot_bytes for s in ok])
    values["snapshot.load_s"] = median([s.load_s for s in ok])
    values["classifier.joint_solve_s"] = inputs.joint_solve_s
    if traced and plain:
        values["trace.overhead_s"] = median([s.wall_s for s in traced]) - median([s.wall_s for s in plain])
    samples = {k: len(traced) for k in values}
    samples["classifier.update_p50_ms"] = len(updates)
    samples["snapshot.bytes"] = samples["snapshot.load_s"] = len(ok)
    samples["classifier.joint_solve_s"] = 1
    return values, samples


def dominance(name: str, values: dict, traced_wall: float) -> str:
    expected = WORKLOADS[name].dominant
    ranked = sorted(LEAF_LAYERS, key=lambda layer: -values.get(f"{layer}_s", 0.0))
    top = ranked[: len(expected)]
    shares = ", ".join(f"{layer} {100 * values[f'{layer}_s'] / traced_wall:.1f}%" for layer in top)
    verdict = "confirmed" if set(top) == set(expected) else f"NOT as expected ({', '.join(expected)})"
    return f"dominant layers of the traced wall time: {shares}: {verdict}"


def bench(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """One run of one workload; returns the result object and prints a report."""
    wl = WORKLOADS[name]
    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    samples: list[Sample] = []
    try:
        inputs = Inputs(name, wl, seed, work)
        loop_start = time.monotonic()
        while True:
            now = time.monotonic()
            modes = {s.mode for s in samples}
            done = now - loop_start >= seconds and (not trace or modes == {"run", "traced"})
            longest = max((s.wall_s for s in samples), default=0.0)
            if done or (samples and now + 1.5 * longest > started + DEADLINE_S):
                break
            mode = "traced" if trace and len(samples) % 2 == 1 else "run"
            samples.append(run_once(inputs, work / f"run{len(samples)}", mode, started + DEADLINE_S - now))
        for i in range(0 if trace else SETUP_REPEATS):
            now = time.monotonic()
            if now + 10.0 > started + DEADLINE_S:
                break
            samples.append(run_once(inputs, work / f"setup{i}", "setup", started + DEADLINE_S - now))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(
        f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
        f"inputs and oracle {loop_start - started:.1f} s  whole run {time.monotonic() - started:.1f} s"
    )
    print("env " + json.dumps(environment(seed), sort_keys=True))
    for i, s in enumerate(samples):
        setup = f"{s.setup_s:.3f} s" if s.setup_s is not None else "-"
        dev = f"{s.oracle_dev:.3e}" if s.oracle_dev is not None else "-"
        print(
            f"process {i} {s.mode}: wall {s.wall_s:.3f} s  setup {setup}  "
            f"rss {s.rss_mb:.0f} MB  acc {s.acc}  oracle_dev {dev}  {s.error or 'ok'}"
        )
    ok = [s for s in samples if s.error is None]
    kind = "per_layer" if trace else "end_to_end"
    values, counts_n = per_layer(ok, inputs, wl) if trace else end_to_end(ok)
    metrics = {}
    for m in spec[kind]:
        value = values.get(m["name"])
        if value is None:
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<30} {value:>16.6g} {m['unit']:<8} (n={counts_n[m['name']]})")
    declared = {m["name"] for m in spec[kind]}
    for key in sorted(values.keys() - declared):
        print(f"{key:<30} {values[key]:>16.6g}          (n={counts_n[key]}, not in BENCHMARK.json)")
    plain_devs = [s.oracle_dev for s in ok if s.mode == "run" and s.oracle_dev is not None]
    if plain_devs:
        print(f"oracle_dev (relative Frobenius distance to joint_solve) {median(plain_devs):.6e}")
    if trace:
        absent = sorted({a for s in ok for a in s.record.get("absent", [])})
        if absent:
            print("absent trace sites (reported as 0): " + ", ".join(absent))
        traced_walls = [s.wall_s for s in ok if s.mode == "traced"]
        if traced_walls:
            print(dominance(name, values, median(traced_walls)))
    failed = sum(s.error is not None for s in samples)
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "akws" / "__init__.py").is_file():
        print(f"error: no akws sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: bench(name, args.seed, args.seconds, bool(args.trace), spec) for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
