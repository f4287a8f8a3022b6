"""Command-line surface: synth, splits, train, eval, km.

Exit codes are uniform across commands: 0 success, 1 runtime or data
failure, 2 usage or configuration failure. Every command is deterministic;
rerunning with identical inputs and seeds rewrites byte-identical files.

The train and eval commands read a flat JSON run-config; command-line
flags override file values. A typical sweep:

    survfuse synth --patients 400 --genes 200 --seed 7 --out data/
    survfuse splits --clinical data/clinical.csv --reps 5 --out splits.json
    survfuse train run.json --rep 0
    survfuse eval --config run.json --model runs/rep00/final \\
        --rep 0 --out metrics.json
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .datakit import (
    DEFAULT_GRADE_NAMES,
    SplitSet,
    gen_splits,
    load_cohort,
    read_clinical,
    read_risks,
    save_cohort,
    standardize_expression,
    synth_gen,
)
from .errors import ConfigError, DataError, SurvfuseError
from .genegraph import (build_adjacency, intersect_features, parse_edge_list,
                        read_text, serialize_graph, write_json)
from .netmodel import (HEAD_CHOICES, HEAD_TASKS, VARIANT_INPUTS, VARIANTS,
                       NetworkConfig, assemble, load_checkpoint)
from .numcore import RngStream
from .surveval import (
    GROUP_NAMES,
    TIE_RULES,
    build_metrics,
    km_curve,
    km_export_csv,
    km_export_svg,
    risk_tertiles,
)
from .training import (SCHEDULE_TASKS, SCHEDULES, check_heads, evaluate_network,
                       patient_groups, preset_names, profile_preset, train)

_STREAM_INIT = 31
# What the survival metrics score: each sample, or each patient's median risk.
AGGREGATIONS = ("sample", "patient")


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Flat run description; every field can live in the JSON file, and a
    command's flag of the same name overrides it."""

    variant: str = "fused"
    schedule: str = "alternate"
    heads: str | None = None
    preset: str = "mmmt-default"
    epochs: int | None = None
    lr: float | None = None
    weight_decay: float | None = None
    batch: int | None = None
    dropout: float | None = None
    seed: int | None = None
    expression: str | None = None
    embeddings: str | None = None
    clinical: str | None = None
    edge_list: str | None = None
    splits: str | None = None
    out: str | None = None
    tie_rule: str = "half"
    aggregation: str = "sample"

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            raw = json.loads(read_text(path, ConfigError))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: run config must be a JSON object")
        unknown = sorted(set(raw) - set(_CONFIG_TYPES))
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {unknown}")
        for key, value in raw.items():
            allowed = _CONFIG_TYPES[key]
            # A number field takes an integer too; no field takes a bool.
            accepted = allowed + ((int,) if float in allowed else ())
            if isinstance(value, bool) or not isinstance(value, accepted):
                expected = " or ".join("null" if t is type(None) else
                                       t.__name__ for t in allowed)
                raise ConfigError(f"{path}: {key} must be {expected}, "
                                  f"got {value!r}")
        for key, choices in _CHOICES.items():
            if raw.get(key) is not None and raw[key] not in choices:
                raise ConfigError(f"{path}: unknown {key} {raw[key]!r} "
                                  f"(choose from {', '.join(choices)})")
        return cls(**raw)

    def override(self, args: argparse.Namespace) -> "RunConfig":
        """The config with each field that ``args`` sets replaced; the
        parser decides which fields have a flag."""
        return replace(self, **{
            f.name: getattr(args, f.name) for f in fields(self)
            if getattr(args, f.name, None) is not None})

    def resolved_heads(self) -> str:
        """The heads given, else the choice that builds exactly the heads
        the schedule trains."""
        if self.heads is not None:
            return self.heads
        tasks = SCHEDULE_TASKS[self.schedule]
        return next(h for h, t in HEAD_TASKS.items() if t == tasks)

    def resolved_profile(self):
        overrides = {"schedule": self.schedule}
        for key, field_name in (("epochs", "epochs"), ("base_lr", "lr"),
                                ("weight_decay", "weight_decay"),
                                ("batch_size", "batch"),
                                ("dropout_p", "dropout"), ("seed", "seed")):
            value = getattr(self, field_name)
            if value is not None:
                overrides[key] = value
        return profile_preset(self.preset, **overrides)


# The JSON types each run.json key accepts, read from RunConfig's field
# annotations: ``int | None`` takes an integer or null.
_CONFIG_TYPES = {name: typing.get_args(hint) or (hint,)
                 for name, hint in typing.get_type_hints(RunConfig).items()}

# The values each choice-valued run.json key, and its flag, accepts.
_CHOICES = {"variant": VARIANTS, "schedule": SCHEDULES, "heads": HEAD_CHOICES,
            "preset": preset_names(), "tie_rule": TIE_RULES,
            "aggregation": AGGREGATIONS}


def _require_out_dirs(*paths) -> None:
    """Fail before any loading when an output file's directory is missing."""
    for path in paths:
        if path is not None and not Path(path).parent.is_dir():
            raise ConfigError(f"output directory {Path(path).parent} of "
                              f"{path} does not exist")


def _require_file(path, what: str) -> Path:
    if path is None:
        raise ConfigError(f"run config is missing the {what} path")
    p = Path(path)
    if not p.is_file():
        raise DataError(f"{what} file not found: {p}")
    return p


def _scored_samples(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Risks, times and events of every clinical row, in clinical order. The
    risks file must hold exactly the clinical samples: its first row for
    another sample is reported first, then the first clinical sample it
    lacks."""
    risks_path = _require_file(args.risks, "risks")
    row_of, risks = read_risks(risks_path)
    table = read_clinical(_require_file(args.clinical, "clinical"))
    rows = [row_of.get(sid) for sid in table.sample_ids]
    if len(row_of) != len(rows) or None in rows:
        clinical = set(table.sample_ids)
        for sid in row_of:
            if sid not in clinical:
                raise DataError(f"{risks_path.name}: sample {sid!r} not in "
                                "clinical table")
        raise DataError(
            f"risks file missing sample {table.sample_ids[rows.index(None)]!r}")
    return risks[rows], table.time, table.event


# ---------------------------------------------------------------------------
# Cohort wiring shared by train and eval
# ---------------------------------------------------------------------------

def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _load_run_cohort(cfg: RunConfig, keep_genes: tuple[str, ...] | None = None):
    """Load the cohort for cfg.variant and wire the gene panel.

    Only the modality files the variant needs are read, so ``load_cohort``
    drops the samples missing one of them; this warns with their count.
    Returns (cohort, mask). When ``keep_genes`` is given (evaluating an
    existing checkpoint) the panel is restricted to it instead of
    re-intersecting with the edge list.
    """
    needs_gene = "gene" in VARIANT_INPUTS[cfg.variant]
    needs_image = "image" in VARIANT_INPUTS[cfg.variant]
    clinical = _require_file(cfg.clinical, "clinical")
    expression = _require_file(cfg.expression, "expression") if needs_gene else None
    embeddings = _require_file(cfg.embeddings, "embeddings") if needs_image else None
    cohort = load_cohort(clinical, expression_path=expression,
                         embedding_path=embeddings)
    if cohort.dropped:
        if not len(cohort):
            raise DataError(f"no sample has every modality the {cfg.variant} "
                            "variant needs")
        _warn(f"dropped {len(cohort.dropped)} samples missing a "
              f"modality the {cfg.variant} variant needs")
    mask = None
    if needs_gene:
        if keep_genes is not None:
            cohort = cohort.gene_subset(keep_genes)
        else:
            edge_list = _require_file(cfg.edge_list, "edge_list")
            graph = parse_edge_list(edge_list)
            subgraph, kept = intersect_features(graph, cohort.gene_order)
            cohort = cohort.gene_subset(kept)
            mask = build_adjacency(subgraph)
    return cohort, mask


def _load_splits(cfg: RunConfig, rep: int | None) -> SplitSet:
    """The split file, read before any data so a bad one fails fast; ``rep``
    must name one of its repetitions (None asks for every one)."""
    split_set = SplitSet.load(_require_file(cfg.splits, "splits"))
    n_reps = len(split_set.repetitions)
    if rep is not None and not 0 <= rep < n_reps:
        raise ConfigError(f"--rep {rep} outside [0, {n_reps}) repetitions")
    return split_set


def _fit_splits(split_set: SplitSet, reps, cohort,
                aggregation: str) -> SplitSet:
    """``split_set`` less any sample id the cohort does not hold (warned
    with the count of distinct ids), with a DataError for the first of
    ``reps`` that has an empty side or, under patient aggregation, a
    test-side patient whose samples' labels differ."""
    present = set(cohort.sample_ids)
    absent = {sid for sides in split_set.repetitions for side in sides
              for sid in side} - present
    if absent:
        _warn(f"dropped {len(absent)} split sample ids not in the loaded "
              "cohort")
        split_set = replace(split_set, repetitions=tuple(
            tuple(tuple(sid for sid in side if sid in present)
                  for side in sides)
            for sides in split_set.repetitions))
    for rep in reps:
        for side, ids in zip(("train", "test"), split_set.repetitions[rep]):
            if not ids:
                raise DataError(f"repetition {rep} has an empty {side} side")
        if aggregation == "patient":
            patient_groups(cohort, split_set.repetitions[rep][1])
    return split_set


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    cohort, graph, _ = synth_gen(
        patients=args.patients, genes=args.genes, causal_genes=args.causal,
        censor_rate=args.censor, label_noise=args.noise, seed=args.seed,
        embedding_dim=args.embedding_dim)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_cohort(cohort, out / "clinical.csv", out / "expression.csv",
                out / "embeddings.csv")
    serialize_graph(graph, out / "edges.tsv")
    print(f"wrote clinical/expression/embeddings/edges for "
          f"{len(cohort)} samples to {out}")
    return 0


def cmd_splits(args) -> int:
    table = read_clinical(_require_file(args.clinical, "clinical"))
    pairs = list(zip(table.sample_ids, table.patient_ids))
    split_set = gen_splits(pairs, reps=args.reps, train_frac=args.train_frac,
                           grouping=args.group, seed=args.seed)
    split_set.save(args.out)
    n_tr = len(split_set.repetitions[0][0])
    n_te = len(split_set.repetitions[0][1])
    print(f"wrote {args.reps} repetitions ({n_tr} train / {n_te} test "
          f"samples in rep 0) to {args.out}")
    return 0


def _train_one_rep(cfg: RunConfig, run_cohort, mask, split_set: SplitSet,
                   rep: int, out_root: Path, verbose: bool) -> dict:
    """Train and score one repetition on ``run_cohort`` (expression already
    standardized on its training ids); best/ is the test split's best epoch."""
    profile = cfg.resolved_profile()
    train_ids, test_ids = split_set.repetitions[rep]
    inputs = VARIANT_INPUTS[cfg.variant]
    net_config = NetworkConfig(
        variant=cfg.variant,
        heads=cfg.resolved_heads(),
        gene_dim=len(run_cohort.gene_order),
        image_dim=run_cohort.embedding.shape[1] if "image" in inputs else 1000,
        grade_classes=len(DEFAULT_GRADE_NAMES),
        dropout_p=profile.dropout_p)
    network = assemble(net_config, mask, RngStream(profile.seed, _STREAM_INIT))

    rep_dir = out_root / f"rep{rep:02d}"
    network, history = train(network, run_cohort, train_ids, profile,
                             eval_ids=test_ids, out_dir=rep_dir,
                             tie_rule=cfg.tie_rule, aggregation=cfg.aggregation)
    # The last epoch's evaluation is the summary's; a 0-epoch run has none.
    report = (history.snapshots[-1].report if history.snapshots else
              evaluate_network(network, run_cohort, test_ids, cfg.tie_rule,
                               cfg.aggregation))
    summary = {
        "variant": cfg.variant,
        "schedule": profile.schedule,
        "heads": net_config.heads,
        "rep": rep,
        "profile": {k: v for k, v in asdict(profile).items()
                    if k != "schedule"},
        "n_train": len(train_ids),
        "n_test": len(test_ids),
        "n_genes": len(run_cohort.gene_order) if mask is not None else None,
        "mask_nonzeros": int(mask.nnz) if mask is not None else None,
        "best_epoch": history.best_epoch,
        "test_metrics": report,
    }
    write_json(rep_dir / "summary.json", summary)
    if verbose:
        print(f"rep {rep}: trained {profile.epochs} epochs, "
              f"{len(history.records)} iterations", file=sys.stderr)
    shown = {k: report[k] for k in ("c_index", "micro_f1")
             if report.get(k) is not None}
    line = " ".join(f"{k}={v:.4f}" for k, v in shown.items())
    print(f"rep {rep}: {line}" if line else f"rep {rep}: done")
    return report


def cmd_train(args) -> int:
    cfg = RunConfig.from_file(_require_file(args.config, "run config"))
    cfg = cfg.override(args)
    if cfg.out is None:
        raise ConfigError("no output directory set (config 'out' or --out)")
    # Fail fast on bad settings before touching any data.
    check_heads(cfg.resolved_profile().schedule, cfg.resolved_heads())

    split_set = _load_splits(cfg, None if args.all_reps else args.rep)
    n_reps = len(split_set.repetitions)
    reps = range(n_reps) if args.all_reps else [args.rep]
    cohort, mask = _load_run_cohort(cfg)
    split_set = _fit_splits(split_set, reps, cohort, cfg.aggregation)

    out_root = Path(cfg.out)
    out_root.mkdir(parents=True, exist_ok=True)
    echo = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    write_json(out_root / "run_config.json", echo)

    reports = []
    for rep in reps:
        run_cohort = standardize_expression(cohort,
                                            split_set.repetitions[rep][0])
        if rep == reps[-1]:
            # Nothing reads the unstandardized matrix again, so the last
            # repetition trains with one expression matrix alive.
            del cohort
        reports.append(_train_one_rep(cfg, run_cohort, mask, split_set, rep,
                                      out_root, args.verbose))
        # Released before the next repetition standardizes its own.
        del run_cohort
    if args.all_reps:
        aggregate: dict = {"reps": n_reps, "metrics": {}}
        for key in ("c_index", "micro_f1", "accuracy", "micro_auc", "micro_ap"):
            values = [r[key] for r in reports if r.get(key) is not None]
            if not values:
                continue
            mean = float(np.mean(values))
            std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
            aggregate["metrics"][key] = {
                "mean": mean, "std": std, "values": values}
        write_json(out_root / "aggregate.json", aggregate)
        print(f"aggregate over {n_reps} reps written to "
              f"{out_root / 'aggregate.json'}")
    return 0


def cmd_eval(args) -> int:
    if args.clinical is not None and args.risks is None:
        raise ConfigError("eval --clinical is only read with --risks; a "
                          "model is scored on the run config's clinical file")
    if args.risks is not None:
        if args.model is not None:
            raise ConfigError("--risks bypass and --model are mutually exclusive")
        for key in ("config", "splits", "rep", "aggregation"):
            if getattr(args, key) is not None:
                raise ConfigError(f"eval --{key} is only read with --model; "
                                  "--risks scores the risks file as given")
        if args.clinical is None:
            raise ConfigError("eval --risks needs --clinical")
    elif args.config is None or args.model is None:
        raise ConfigError("eval needs --config and --model (or --risks bypass)")
    _require_out_dirs(args.out)
    if args.risks is not None:
        risks, times, events = _scored_samples(args)
        report = build_metrics(risks=risks, times=times, events=events,
                               tie_rule=args.tie_rule or RunConfig.tie_rule)
        write_json(args.out, report)
        print(f"wrote metrics for {len(risks)} samples to {args.out}")
        return 0

    # Inputs are read in this order, so the first bad one is reported: run
    # config, split file and --rep, checkpoint, data.
    cfg = RunConfig.from_file(_require_file(args.config, "run config"))
    cfg = cfg.override(args)
    rep = 0 if args.rep is None else args.rep
    split_set = _load_splits(cfg, rep)
    network = load_checkpoint(Path(args.model))
    for task in HEAD_TASKS[args.require] if args.require else ():
        if task not in HEAD_TASKS[network.config.heads]:
            raise ConfigError(f"{task} metrics requested on a model "
                              f"without a {task} head")
    keep = network.mask.genes if network.mask is not None else None
    run_cfg = replace(cfg, variant=network.config.variant)
    cohort, _ = _load_run_cohort(run_cfg, keep_genes=keep)
    split_set = _fit_splits(split_set, [rep], cohort, cfg.aggregation)
    train_ids, test_ids = split_set.repetitions[rep]
    cohort = standardize_expression(cohort, train_ids)
    report = evaluate_network(network, cohort, test_ids, cfg.tie_rule,
                              cfg.aggregation)
    write_json(args.out, report)
    print(f"wrote metrics for {len(test_ids)} test samples to {args.out}")
    return 0


def cmd_km(args) -> int:
    _require_out_dirs(args.out, args.svg)
    risks, times, events = _scored_samples(args)
    labels = np.asarray(risk_tertiles(risks))
    curves, sizes = {}, {}
    for name in GROUP_NAMES:
        member = labels == name
        curves[name] = km_curve(times[member], events[member])
        sizes[name] = int(member.sum())
    km_export_csv(curves, args.out)
    if args.svg is not None:
        km_export_svg(curves, args.svg)
    print(f"wrote KM curves (Low/Mid/High sizes "
          f"{sizes['Low']}/{sizes['Mid']}/{sizes['High']}) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_key_flags(parser: argparse.ArgumentParser, *keys: str) -> None:
    """``--<key>`` (``-`` for ``_``) for each run.json key, storing under the
    key with the type and choices ``_CONFIG_TYPES`` and ``_CHOICES`` give."""
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            type=_CONFIG_TYPES[key][0],
                            choices=_CHOICES.get(key))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="survfuse",
        description="Multi-modal multi-task survival and grade prediction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--patients", type=int, required=True)
    p.add_argument("--genes", type=int, required=True)
    p.add_argument("--causal", type=int, default=20)
    p.add_argument("--censor", type=float, default=0.3)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--embedding-dim", type=int, default=1000)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("splits", help="generate train/test repetitions")
    p.add_argument("--clinical", required=True)
    p.add_argument("--reps", type=int, default=15)
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--group", choices=("patient", "sample"), default="patient")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output JSON file")
    p.set_defaults(func=cmd_splits)

    p = sub.add_parser("train", help="train one configured run")
    p.add_argument("config", help="JSON run config")
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--all-reps", action="store_true",
                   help="train every repetition and write an aggregate")
    _add_key_flags(p, "variant", "schedule", "heads", "preset", "epochs", "lr",
                   "weight_decay", "batch", "dropout", "seed", "splits", "out")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test split")
    p.add_argument("--config", help="JSON run config (for data paths)")
    p.add_argument("--model", help="checkpoint directory")
    p.add_argument("--rep", type=int)
    p.add_argument("--out", required=True, help="metrics JSON output")
    p.add_argument("--risks",
                   help="bypass: score a sample_id,risk CSV instead of a model")
    p.add_argument("--clinical", help="clinical CSV (with --risks)")
    _add_key_flags(p, "splits", "tie_rule", "aggregation")
    p.add_argument("--require", choices=_CHOICES["heads"],
                   help="fail unless the model carries these heads")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("km", help="Kaplan-Meier curves for risk tertiles")
    p.add_argument("--risks", required=True, help="sample_id,risk CSV")
    p.add_argument("--clinical", required=True)
    p.add_argument("--out", required=True, help="curve CSV output")
    p.add_argument("--svg", help="optional SVG step plot")
    p.set_defaults(func=cmd_km)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SurvfuseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
