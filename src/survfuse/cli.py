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
import csv
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .datakit import (
    SplitSet,
    _parse_float,
    gen_splits,
    load_cohort,
    read_clinical,
    save_cohort,
    standardize_expression,
    synth_gen,
)
from .errors import ConfigError, DataError, SurvfuseError
from .genegraph import build_adjacency, intersect_features, parse_edge_list, serialize_graph
from .netmodel import NetworkConfig, assemble, load_checkpoint
from .numcore import RngStream
from .surveval import (
    GROUP_NAMES,
    build_metrics,
    km_curve,
    km_export_csv,
    km_export_svg,
    risk_tertiles,
    save_metrics,
)
from .training import design_matrices, preset_names, profile_preset, train

_STREAM_INIT = 31


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Flat run description; every field can live in the JSON file and the
    scalar ones can be overridden by flags."""

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
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: run config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {unknown}")
        return cls(**raw)

    def override(self, args: argparse.Namespace) -> "RunConfig":
        updates = {}
        for name in ("variant", "schedule", "heads", "preset", "epochs", "lr",
                     "weight_decay", "batch", "dropout", "seed", "splits",
                     "out", "tie_rule", "aggregation"):
            value = getattr(args, name, None)
            if value is not None:
                updates[name] = value
        return replace(self, **updates)

    def resolved_heads(self) -> str:
        if self.heads is not None:
            return self.heads
        return {
            "alternate": "both",
            "joint-add": "both",
            "survival-only": "survival",
            "grade-only": "grade",
        }[self.schedule]

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


def _require_file(path, what: str) -> Path:
    if path is None:
        raise ConfigError(f"run config is missing the {what} path")
    p = Path(path)
    if not p.is_file():
        raise DataError(f"{what} file not found: {p}")
    return p


def _read_risks(path) -> dict[str, float]:
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path.name}: empty file") from None
        if tuple(header) != ("sample_id", "risk"):
            raise DataError(
                f"{path.name}: expected header sample_id,risk")
        risks: dict[str, float] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataError(
                    f"{path.name}:{lineno}: expected 2 columns, got {len(row)}")
            sid, tok = row
            if sid in risks:
                raise DataError(f"{path.name}:{lineno}: duplicate sample {sid!r}")
            risks[sid] = _parse_float(tok, f"{path.name}:{lineno}")
    return risks


# ---------------------------------------------------------------------------
# Cohort wiring shared by train and eval
# ---------------------------------------------------------------------------

def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _load_run_cohort(cfg: RunConfig, keep_genes: tuple[str, ...] | None = None):
    """Load the cohort for cfg.variant and wire the gene panel.

    Samples missing a modality the variant needs are dropped with a warning.
    Returns (cohort, mask). When ``keep_genes`` is given (evaluating an
    existing checkpoint) the panel is restricted to it instead of
    re-intersecting with the edge list.
    """
    needs_gene = cfg.variant in ("fused", "gene-only")
    needs_image = cfg.variant in ("fused", "image-only")
    clinical = _require_file(cfg.clinical, "clinical")
    expression = _require_file(cfg.expression, "expression") if needs_gene else None
    embeddings = _require_file(cfg.embeddings, "embeddings") if needs_image else None
    cohort = load_cohort(clinical, expression_path=expression,
                         embedding_path=embeddings)
    complete = tuple(
        s for s in cohort.samples
        if (s.expression is not None or not needs_gene)
        and (s.image_embedding is not None or not needs_image))
    if len(complete) < len(cohort):
        if not complete:
            raise DataError(f"no sample has every modality the {cfg.variant} "
                            "variant needs")
        _warn(f"dropped {len(cohort) - len(complete)} samples missing a "
              f"modality the {cfg.variant} variant needs")
        cohort = replace(cohort, samples=complete)
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


def _load_splits(cfg: RunConfig, cohort) -> SplitSet:
    """The split file, less any sample id the cohort does not hold (warned
    with the count)."""
    split_set = SplitSet.load(_require_file(cfg.splits, "splits"))
    present = set(cohort.sample_ids)
    listed = {sid for reps in split_set.repetitions for side in reps
              for sid in side}
    absent = listed - present
    if not absent:
        return split_set
    _warn(f"dropped {len(absent)} split sample ids not in the loaded cohort")
    reps = tuple(tuple(tuple(sid for sid in side if sid in present)
                       for side in sides)
                 for sides in split_set.repetitions)
    return replace(split_set, repetitions=reps)


def _embedding_width(cohort) -> int:
    for s in cohort.samples:
        if s.image_embedding is not None:
            return len(s.image_embedding)
    raise DataError("cohort has no image embeddings")


def _evaluate_to_report(network, cohort, ids, tie_rule: str,
                        aggregation: str) -> dict:
    gene_x, image_x = design_matrices(network, cohort, ids)
    outputs = network.predict(gene_x=gene_x, image_x=image_x)
    kwargs: dict = {}
    if "survival" in outputs:
        risks = outputs["survival"].reshape(-1)
        times = cohort.times(ids)
        events = cohort.events(ids)
        if aggregation == "patient":
            risks, times, events = _aggregate_by_patient(
                cohort, ids, risks, times, events)
        kwargs.update(risks=risks, times=times, events=events)
    if "grade" in outputs:
        kwargs.update(log_probs=outputs["grade"],
                      true_grades=cohort.grades(ids),
                      k=len(cohort.grade_names))
    return build_metrics(tie_rule=tie_rule, **kwargs)


def _aggregate_by_patient(cohort, ids, risks, times, events):
    """Collapse sample-level risks to one median risk per patient; survival
    labels are shared within a patient so the first sample's are used."""
    by_patient: dict[str, list[int]] = {}
    for i, sid in enumerate(ids):
        by_patient.setdefault(cohort.get(sid).patient_id, []).append(i)
    agg_risks, agg_times, agg_events = [], [], []
    for rows in by_patient.values():
        agg_risks.append(float(np.median([risks[i] for i in rows])))
        agg_times.append(times[rows[0]])
        agg_events.append(events[rows[0]])
    return (np.asarray(agg_risks), np.asarray(agg_times),
            np.asarray(agg_events, dtype=np.int64))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cohort, graph, _ = synth_gen(
        patients=args.patients, genes=args.genes, causal_genes=args.causal,
        censor_rate=args.censor, label_noise=args.noise, seed=args.seed,
        embedding_dim=args.embedding_dim)
    save_cohort(cohort, out / "clinical.csv", out / "expression.csv",
                out / "embeddings.csv")
    serialize_graph(graph, out / "edges.tsv")
    print(f"wrote clinical/expression/embeddings/edges for "
          f"{len(cohort)} samples to {out}")
    return 0


def cmd_splits(args) -> int:
    order, clinical = read_clinical(_require_file(args.clinical, "clinical"))
    pairs = [(sid, clinical[sid][0]) for sid in order]
    split_set = gen_splits(pairs, reps=args.reps, train_frac=args.train_frac,
                           grouping=args.group, seed=args.seed)
    split_set.save(args.out)
    n_tr = len(split_set.repetitions[0][0])
    n_te = len(split_set.repetitions[0][1])
    print(f"wrote {args.reps} repetitions ({n_tr} train / {n_te} test "
          f"samples in rep 0) to {args.out}")
    return 0


def _train_one_rep(cfg: RunConfig, cohort, mask, split_set: SplitSet,
                   rep: int, out_root: Path, verbose: bool) -> dict:
    profile = cfg.resolved_profile()
    train_ids, test_ids = split_set.repetitions[rep]
    if cfg.variant in ("fused", "gene-only"):
        run_cohort, _ = standardize_expression(cohort, train_ids)
    else:
        run_cohort = cohort
    net_config = NetworkConfig(
        variant=cfg.variant,
        heads=cfg.resolved_heads(),
        gene_dim=len(run_cohort.gene_order) if mask is not None else 0,
        image_dim=(_embedding_width(run_cohort)
                   if cfg.variant in ("fused", "image-only") else 1000),
        grade_classes=len(run_cohort.grade_names),
        dropout_p=profile.dropout_p)
    network = assemble(net_config, mask, RngStream(profile.seed, _STREAM_INIT))

    rep_dir = out_root / f"rep{rep:02d}"
    network, history = train(network, run_cohort, train_ids, profile,
                             eval_ids=test_ids or None, out_dir=rep_dir)
    report = _evaluate_to_report(network, run_cohort, test_ids,
                                 cfg.tie_rule, cfg.aggregation)
    summary = {
        "variant": cfg.variant,
        "schedule": profile.schedule,
        "heads": net_config.heads,
        "rep": rep,
        "profile": {
            "epochs": profile.epochs,
            "base_lr": profile.base_lr,
            "weight_decay": profile.weight_decay,
            "batch_size": profile.batch_size,
            "dropout_p": profile.dropout_p,
            "seed": profile.seed,
        },
        "n_train": len(train_ids),
        "n_test": len(test_ids),
        "n_genes": len(run_cohort.gene_order) if mask is not None else None,
        "mask_nonzeros": int(mask.nnz) if mask is not None else None,
        "best_epoch": history.best_epoch,
        "test_metrics": report,
    }
    with open(rep_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    # Fail fast on incompatible settings before touching any data.
    profile = cfg.resolved_profile()
    heads = cfg.resolved_heads()
    if profile.schedule in ("alternate", "joint-add") and heads != "both":
        raise ConfigError(
            f"schedule {profile.schedule!r} needs heads='both', got {heads!r}")
    if profile.schedule == "survival-only" and heads == "grade":
        raise ConfigError("survival-only schedule needs a survival head")
    if profile.schedule == "grade-only" and heads == "survival":
        raise ConfigError("grade-only schedule needs a grade head")

    cohort, mask = _load_run_cohort(cfg)
    split_set = _load_splits(cfg, cohort)
    n_reps = len(split_set.repetitions)
    if args.all_reps:
        reps = range(n_reps)
    else:
        if not 0 <= args.rep < n_reps:
            raise ConfigError(
                f"--rep {args.rep} outside [0, {n_reps}) repetitions")
        reps = [args.rep]

    out_root = Path(cfg.out)
    out_root.mkdir(parents=True, exist_ok=True)
    echo = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    with open(out_root / "run_config.json", "w", encoding="utf-8") as fh:
        json.dump(echo, fh, indent=2, sort_keys=True)
        fh.write("\n")

    reports = [_train_one_rep(cfg, cohort, mask, split_set, rep, out_root,
                              args.verbose)
               for rep in reps]
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
        with open(out_root / "aggregate.json", "w", encoding="utf-8") as fh:
            json.dump(aggregate, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"aggregate over {n_reps} reps written to "
              f"{out_root / 'aggregate.json'}")
    return 0


def cmd_eval(args) -> int:
    if args.risks is not None:
        if args.model is not None:
            raise ConfigError("--risks bypass and --model are mutually exclusive")
        risks_map = _read_risks(_require_file(args.risks, "risks"))
        order, clinical = read_clinical(_require_file(args.clinical, "clinical"))
        missing = [sid for sid in order if sid not in risks_map]
        if missing:
            raise DataError(f"risks file missing sample {missing[0]!r}")
        risks = np.asarray([risks_map[sid] for sid in order])
        times = np.asarray([clinical[sid][1] for sid in order])
        events = np.asarray([clinical[sid][2] for sid in order], dtype=np.int64)
        report = build_metrics(risks=risks, times=times, events=events,
                               tie_rule=args.tie_rule or "half")
        save_metrics(report, args.out)
        print(f"wrote metrics for {len(order)} samples to {args.out}")
        return 0

    if args.config is None or args.model is None:
        raise ConfigError("eval needs --config and --model (or --risks bypass)")
    cfg = RunConfig.from_file(_require_file(args.config, "run config"))
    cfg = cfg.override(args)
    network = load_checkpoint(Path(args.model))
    if args.require is not None:
        if args.require in ("survival", "both") and not network.config.with_survival:
            raise ConfigError("survival metrics requested on a model "
                              "without a survival head")
        if args.require in ("grade", "both") and not network.config.with_grade:
            raise ConfigError("grade metrics requested on a model "
                              "without a grade head")
    keep = network.mask.genes if network.mask is not None else None
    run_cfg = replace(cfg, variant=network.config.variant)
    cohort, _ = _load_run_cohort(run_cfg, keep_genes=keep)
    split_set = _load_splits(cfg, cohort)
    if not 0 <= args.rep < len(split_set.repetitions):
        raise ConfigError(
            f"--rep {args.rep} outside [0, {len(split_set.repetitions)}) "
            "repetitions")
    train_ids, test_ids = split_set.repetitions[args.rep]
    if not test_ids:
        raise DataError(f"repetition {args.rep} has an empty test side")
    if network.config.variant in ("fused", "gene-only"):
        cohort, _ = standardize_expression(cohort, train_ids)
    report = _evaluate_to_report(network, cohort, test_ids, cfg.tie_rule,
                                 cfg.aggregation)
    save_metrics(report, args.out)
    print(f"wrote metrics for {len(test_ids)} test samples to {args.out}")
    return 0


def cmd_km(args) -> int:
    risks_map = _read_risks(_require_file(args.risks, "risks"))
    order, clinical = read_clinical(_require_file(args.clinical, "clinical"))
    missing = [sid for sid in order if sid not in risks_map]
    if missing:
        raise DataError(f"risks file missing sample {missing[0]!r}")
    risks = np.asarray([risks_map[sid] for sid in order])
    groups = risk_tertiles(risks)
    times = np.asarray([clinical[sid][1] for sid in order])
    events = np.asarray([clinical[sid][2] for sid in order], dtype=np.int64)
    labels = np.asarray(groups.labels)
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
    p.add_argument("--variant", choices=("gene-only", "image-only", "fused"))
    p.add_argument("--schedule", choices=("alternate", "joint-add",
                                          "survival-only", "grade-only"))
    p.add_argument("--heads", choices=("survival", "grade", "both"))
    p.add_argument("--preset", choices=preset_names())
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--batch", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--splits")
    p.add_argument("--out")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test split")
    p.add_argument("--config", help="JSON run config (for data paths)")
    p.add_argument("--model", help="checkpoint directory")
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--out", required=True, help="metrics JSON output")
    p.add_argument("--risks",
                   help="bypass: score a sample_id,risk CSV instead of a model")
    p.add_argument("--clinical", help="clinical CSV (with --risks)")
    p.add_argument("--splits")
    p.add_argument("--tie-rule", choices=("half", "strict"), dest="tie_rule")
    p.add_argument("--aggregation", choices=("sample", "patient"))
    p.add_argument("--require", choices=("survival", "grade", "both"),
                   help="fail unless the model carries these heads")
    p.add_argument("--verbose", action="store_true")
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
