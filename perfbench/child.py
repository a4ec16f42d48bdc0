"""Run one ``akws`` CLI command in this process and record when it ran what.

    python3 child.py --src SRC --record FILE [--trace | --stop-at-fit] -- AKWS_ARGS...

Without ``--trace`` the only instrumentation is one probe: the monotonic
time of the first call into a classifier fit (``recalibrate``, or
``update`` once ``recalibrate`` is gone). The parent subtracts its own
launch time from it to get the set-up time. With ``--stop-at-fit`` the
process exits at that moment, so set-up can be sampled again cheaply.

With ``--trace`` every public function listed in ``TRACE_SITES`` is
wrapped where its caller looks it up, and each call becomes a span
``[name, start_ns, end_ns, parent_index, rows, bytes]`` kept in memory.
A site whose module or attribute no longer exists is reported as absent
instead of failing the run. The record is written as JSON when the
command ends, whatever its outcome; the exit code is the command's own.
"""

import argparse
import functools
import importlib
import json
import os
import sys
import time

FIT_SITES = (("akws.harness", "recalibrate"), ("akws.harness", "update"))
FIT_SPANS = ("classifier.recalibrate", "classifier.update")


def _rows(index):
    def count(args, result):
        arg = args[index] if len(args) > index else None
        return getattr(arg, "shape", (0,))[0], 0

    return count


def _loaded(args, result):
    return getattr(result, "n", 0), os.path.getsize(args[0])


# (module, attribute, span name, counter). The CLI and the harness bind
# their callees at import, so a name is patched in the module that calls
# it, not in the module that defines it.
TRACE_SITES = (
    ("akws.cli", "gen_synth_split", "data.gen", None),
    ("akws.cli", "tasks_from_manifest", "data.load_tasks", None),
    ("akws.harness", "load_features", "data.load_features", _loaded),
    ("akws.cli", "run_experiment", "harness.run", None),
    ("akws.harness", "pretrain_extractor", "extractor.pretrain", None),
    ("akws.harness", "extract", "extractor.extract", _rows(1)),
    ("akws.harness", "build_expansion", "expansion.build", None),
    ("akws.expansion", "normal_matrix", "prng.normal_matrix", None),
    ("akws.harness", "expand", "expansion.expand", _rows(0)),
    ("akws.harness", "recalibrate", "classifier.recalibrate", _rows(0)),
    ("akws.harness", "update", "classifier.update", _rows(1)),
    ("akws.harness", "predict", "classifier.predict", _rows(1)),
    ("akws.classifier", "LabelMatrix.from_labels", "classifier.labels", None),
    ("akws.cli", "write_grid_csv", "harness.write_grid", None),
    ("akws.cli", "save_snapshot", "snapshot.save", None),
)


class Recorder:
    """Spans and the set-up probe of one process, held in memory."""

    def __init__(self, path, stop_at_fit=False):
        self.path = path
        self.stop_at_fit = stop_at_fit
        self.import_ns = 0
        self.spans = []
        self.stack = []
        self.absent = []
        self.first_fit_ns = None

    def write(self):
        fits = [s[1] for s in self.spans if s[0] in FIT_SPANS]
        doc = {
            "import_ns": self.import_ns,
            "first_fit_ns": min(fits, default=self.first_fit_ns),
            "spans": self.spans,
            "absent": self.absent,
        }
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def probe(self, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if self.first_fit_ns is None:
                self.first_fit_ns = time.monotonic_ns()
                if self.stop_at_fit:
                    self.write()
                    os._exit(0)
            return fn(*args, **kwargs)

        return probed

    def span(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0, 0, self.stack[-1] if self.stack else -1, 0, 0])
            self.stack.append(idx)
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                self.stack.pop()
                self.spans[idx][1:3] = [start, end]
            if count is not None:
                self.spans[idx][4:6] = count(args, result)
            return result

        return traced

    def patch(self, module_name, attr, wrap, *wrap_args):
        """Replace ``module.attr`` (dotted, classmethods included) by a wrapper."""
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[leaf]
        except (ImportError, AttributeError, KeyError):
            self.absent.append(f"{module_name}.{attr}")
            return
        if isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(wrap(raw.__func__, *wrap_args)))
        else:
            setattr(owner, leaf, wrap(raw, *wrap_args))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--record", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--stop-at-fit", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    sys.path.insert(0, args.src)
    rec = Recorder(args.record, args.stop_at_fit)
    import_start = time.monotonic_ns()
    import akws.cli

    rec.import_ns = time.monotonic_ns() - import_start
    if args.trace:
        for module_name, attr, name, count in TRACE_SITES:
            rec.patch(module_name, attr, rec.span, name, count)
    else:
        for module_name, attr in FIT_SITES:
            rec.patch(module_name, attr, rec.probe)
    run = rec.span(akws.cli.main, "cli.main") if args.trace else akws.cli.main
    try:
        return run(command)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        rec.write()


if __name__ == "__main__":
    sys.exit(main())
