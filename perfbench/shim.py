"""Run one survfuse command in-process, with timing wrappers at layer boundaries.

    python3 perfbench/shim.py REPORT TRACE <survfuse arguments...>

The command runs exactly as ``survfuse <arguments>`` does: this file calls
``survfuse.cli.main`` and exits with its code. Before that it rebinds module
attributes at the layer boundaries to timing wrappers; nothing under
``src/`` changes. With TRACE=0 only two boundaries are wrapped: entry and exit
of ``training.train`` and entry into ``surveval.build_metrics``, which mark the
end of set-up. With TRACE=1 every boundary in ``_BOUNDARIES`` records a span.
Spans are kept in memory and written to REPORT as JSON when the command ends.

Clock values are ``time.monotonic()``, which is one system-wide clock on
Linux, so the parent can subtract its own start time from them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import survfuse.cli as cli  # noqa: E402
import survfuse.netmodel as netmodel  # noqa: E402
import survfuse.surveval as surveval  # noqa: E402
import survfuse.training as training  # noqa: E402

clock = time.monotonic

# (module or class, attribute, span name). A function imported by name into
# several modules is wrapped where its caller looks it up.
_BOUNDARIES = (
    (cli, "load_cohort", "datakit.load_cohort"),
    (cli, "read_clinical", "datakit.read_clinical"),
    (cli, "standardize_expression", "datakit.standardize_expression"),
    (cli, "parse_edge_list", "genegraph.parse_edge_list"),
    (cli, "build_adjacency", "genegraph.build_adjacency"),
    (cli, "assemble", "netmodel.assemble"),
    (cli, "load_checkpoint", "netmodel.load_checkpoint"),
    (cli, "train", "training.train"),
    (cli, "build_metrics", "surveval.build_metrics"),
    (cli, "km_curve", "surveval.km_curve"),
    (training, "select_task", "training.select_task"),
    (training, "adam_step", "numcore.adam_step"),
    (training, "cox_loss", "training.loss"),
    (training, "nll_loss", "training.loss"),
    (training, "evaluate_network", "training.evaluate_network"),
    (training, "save_checkpoint", "netmodel.save_checkpoint"),
    (training, "c_index", "surveval.c_index"),
    (surveval, "c_index", "surveval.c_index"),
    (surveval, "micro_auc_ap", "surveval.micro_auc_ap"),
    (netmodel, "dense_forward", "numcore.dense_forward"),
    (netmodel, "dense_backward", "numcore.dense_backward"),
    (netmodel, "activation", "numcore.activation"),
    (netmodel, "activation_backward", "numcore.activation_backward"),
    (netmodel, "dropout_mask", "numcore.dropout"),
    (netmodel, "alpha_dropout", "numcore.dropout"),
    (netmodel.Network, "forward", "netmodel.forward"),
    (netmodel.Network, "backward", "netmodel.backward"),
    (netmodel.Network, "predict", "netmodel.predict"),
)

# Boundaries kept in an untraced run: they end set-up and time train().
_UNTRACED = {"training.train", "surveval.build_metrics"}


class Recorder:
    """In-memory span list. A span is [name, start, end, parent, layer, rows];
    ``layer`` and ``rows`` are set only on dense-kernel spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        # id(weights) -> layer name for the network whose forward or
        # backward pass is running, so a kernel call can name its layer.
        self.layer_of: dict[int, str] = {}

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, fn, name: str):
        rec = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, None, None]
            rec.before(name, span, args)
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                rec.stack.pop()
            rec.after(name, args, result)
            return result

        return timed

    def before(self, name: str, span: list, args) -> None:
        if name in ("netmodel.forward", "netmodel.backward"):
            self.layer_of = {id(layer.weights): layer.name
                             for layer in args[0].all_layers()}
        elif name in ("numcore.dense_forward", "numcore.dense_backward"):
            span[4] = self.layer_of.get(id(args[1]))
            span[5] = len(args[0])

    def after(self, name: str, args, result) -> None:
        if name == "datakit.load_cohort":
            self.add("datakit.values_parsed", sum(
                3 + _size(s.expression) + _size(s.image_embedding)
                for s in result.samples))
        elif name == "genegraph.build_adjacency":
            self.add("genegraph.mask_nnz", result.nnz)
        elif name == "numcore.adam_step":
            self.counts["numcore.adam_params"] = sum(
                p.size for p in args[0].values())
        elif name == "netmodel.save_checkpoint":
            self.add("netmodel.checkpoint_bytes", sum(
                f.stat().st_size for f in Path(args[1]).iterdir()))
        elif name == "training.train":
            self.add("training.iterations", len(result[1].records))
            self.add("training.samples", len(args[2]) * args[3].epochs)


def _size(values) -> int:
    return 0 if values is None else len(values)


def main(argv: list[str]) -> int:
    report_path, trace, command = argv[0], argv[1] == "1", argv[2:]
    rec = Recorder()
    for owner, attr, name in _BOUNDARIES:
        if trace or name in _UNTRACED:
            setattr(owner, attr, rec.wrap(getattr(owner, attr), name))
    main_start = clock()
    code = 1
    try:
        code = cli.main(command)
    finally:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({"main_start": main_start, "spans": rec.spans,
                       "counts": rec.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
