"""Loss functions, task scheduling, and the batched training loop.

The dual-head setup trains by an alternating scheme: a global iteration
counter c starts at 1 and odd iterations optimize the survival loss, even
ones the grade loss. Each iteration consumes the next mini-batch, so under
alternation each task sees half the batches of an epoch. A joint schedule
that sums both losses and the two single-task schedules are also provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .datakit import DEFAULT_GRADE_NAMES
from .errors import ConfigError, DataError, NumericError
from .netmodel import HEAD_TASKS, Network, save_checkpoint, save_params
from .numcore import AdamState, RngStream, adam_step
# c_index is unused here; perfbench/shim.py rebinds it until ROADMAP item 7.
from .surveval import build_metrics, c_index  # noqa: F401

# Which tasks each schedule trains (alternate takes them in turn).
SCHEDULE_TASKS = {"alternate": ("survival", "grade"),
                  "joint-add": ("survival", "grade"),
                  "survival-only": ("survival",), "grade-only": ("grade",)}
SCHEDULES = tuple(SCHEDULE_TASKS)
# The report entry that scores each task when train picks its best epoch.
_TASK_METRICS = (("survival", "c_index"), ("grade", "micro_f1"))

_STREAM_SHUFFLE = 21
_STREAM_DROPOUT = 22


@dataclass(frozen=True)
class TrainingProfile:
    epochs: int
    base_lr: float
    weight_decay: float
    batch_size: int
    dropout_p: float = 0.25
    schedule: str = "alternate"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        # NaN compares False with everything, so finiteness is checked first.
        if not math.isfinite(self.base_lr) or self.base_lr <= 0:
            raise ConfigError(
                f"base_lr must be positive and finite, got {self.base_lr}")
        if not math.isfinite(self.weight_decay) or self.weight_decay < 0:
            raise ConfigError(
                f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        RngStream(self.seed)  # rejects a negative seed before any data is read


_PRESETS = {
    # Fused dual-head network.
    "mmmt-default": TrainingProfile(
        epochs=30, base_lr=1e-4, weight_decay=4e-4, batch_size=32,
        dropout_p=0.25, schedule="alternate"),
    # Single-modal image-embedding runs.
    "smst-image": TrainingProfile(
        epochs=50, base_lr=5e-4, weight_decay=4e-4, batch_size=8,
        dropout_p=0.25, schedule="survival-only"),
    # Single-modal gene-expression runs.
    "smst-gene": TrainingProfile(
        epochs=50, base_lr=2e-3, weight_decay=5e-4, batch_size=64,
        dropout_p=0.25, schedule="survival-only"),
}


def profile_preset(name: str, **overrides) -> TrainingProfile:
    """Named hyperparameter profile; keyword overrides replace fields."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    return replace(_PRESETS[name], **overrides)


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def cox_loss(risks, times, events) -> tuple[float, np.ndarray]:
    """Negative Cox partial log-likelihood over the mini-batch, averaged per
    observed event, with its analytic gradient.

    ``times`` and ``events`` are a batch's rows of a cohort's columns, whose
    rules ``datakit._LABEL_RULES`` owns. The risk set for an event at time
    t_i is every batch member with t_j >= t_i (ties included). The
    log-sum-exp is max-shifted. A batch with no events contributes loss 0
    and a zero gradient.
    """
    y_in = np.asarray(risks, dtype=np.float64)
    y = y_in.reshape(-1)
    t = np.asarray(times, dtype=np.float64).reshape(-1)
    d = np.asarray(events, dtype=np.int64).reshape(-1)
    if len(y) != len(t):
        raise DataError(
            f"{len(y)} risks for {len(t)} survival labels")
    n_events = int(d.sum())
    if n_events == 0:
        return 0.0, np.zeros_like(y_in)
    # in_set[i, j]: j belongs to the risk set of i
    in_set = t[None, :] >= t[:, None]
    shift = y.max()
    exp_y = np.exp(y - shift)
    denom = in_set @ exp_y
    log_denom = np.log(denom) + shift
    loss = -float(np.sum(d * (y - log_denom))) / n_events
    # dL/dy_j = -(1/E) * (d_j - sum_i d_i * [j in set of i] * e^{y_j}/denom_i)
    grad = -(d - exp_y * (in_set.T @ (d / denom))) / n_events
    return loss, grad.reshape(y_in.shape)


def nll_loss(log_probs, labels) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood on log-probability rows, with gradient."""
    lp = np.asarray(log_probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if lp.ndim != 2 or lp.shape[0] != len(y):
        raise DataError(f"log-prob shape {lp.shape} does not match {len(y)} labels")
    n, k = lp.shape
    bad = np.nonzero((y < 0) | (y >= k))[0]
    if len(bad):
        raise DataError(
            f"grade label {y[bad[0]]} out of range [0, {k}) at sample "
            f"index {bad[0]}")
    rows = np.arange(n)
    loss = -float(lp[rows, y].mean())
    grad = np.zeros_like(lp)
    grad[rows, y] = -1.0 / n
    return loss, grad


def select_task(c: int, schedule: str) -> tuple[str, ...]:
    """Task(s) optimized at iteration c (1-based): alternation sends odd
    iterations to survival and even ones to grade; joint-add returns both."""
    if c < 1:
        raise ValueError(f"iteration counter starts at 1, got {c}")
    if schedule not in SCHEDULE_TASKS:
        raise ConfigError(f"unknown schedule {schedule!r}")
    tasks = SCHEDULE_TASKS[schedule]
    return (tasks[(c - 1) % 2],) if schedule == "alternate" else tasks


def check_heads(schedule: str, heads: str) -> tuple[str, ...]:
    """The tasks ``schedule`` (a known one, as TrainingProfile checks)
    trains; a ConfigError unless the ``heads`` choice builds a head for each
    of them."""
    if heads not in HEAD_TASKS:
        raise ConfigError(f"unknown heads choice {heads!r}")
    for task in SCHEDULE_TASKS[schedule]:
        if task not in HEAD_TASKS[heads]:
            raise ConfigError(f"schedule {schedule!r} needs a {task} head, "
                              f"which heads={heads!r} lacks")
    return SCHEDULE_TASKS[schedule]


# ---------------------------------------------------------------------------
# History
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    epoch: int
    task: str
    loss: float
    lr: float
    zero_event_batch: bool = False


@dataclass(frozen=True)
class EpochSnapshot:
    """An epoch's evaluate_network report and the score train ranks it by."""
    epoch: int
    report: dict
    score: float | None


@dataclass
class TrainingHistory:
    records: list[IterationRecord] = field(default_factory=list)
    snapshots: list[EpochSnapshot] = field(default_factory=list)
    best_epoch: int | None = None

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iteration,epoch,task,loss,lr\n")
            for r in self.records:
                fh.write(f"{r.iteration},{r.epoch},{r.task},"
                         f"{r.loss!r},{r.lr!r}\n")


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def patient_groups(cohort, ids) -> list[list[int]]:
    """Positions in ``ids`` of each patient's samples, patients in the order
    they first appear. A patient's samples must share their survival labels;
    a DataError names the first patient whose samples do not."""
    rows = cohort.rows(ids)
    times, events = cohort.time[rows], cohort.event[rows]
    by_patient: dict[str, list[int]] = {}
    for i, row in enumerate(rows):
        by_patient.setdefault(cohort.sample_patients[row], []).append(i)
    for patient, group in by_patient.items():
        if len({(times[i], events[i]) for i in group}) > 1:
            raise DataError(f"patient {patient!r}: samples disagree on "
                            "time_days or event")
    return list(by_patient.values())


def evaluate_network(network: Network, cohort, ids, tie_rule: str = "half",
                     aggregation: str = "sample") -> dict:
    """The ``build_metrics`` report of ``network`` on ``ids`` for each head
    it carries; under patient ``aggregation`` the survival block scores each
    patient's median risk. train's epoch scores and eval's metrics both
    come from here. Both cohort matrices are gathered at the rows of ``ids``;
    ``Network.forward`` skips the one the variant does not read."""
    rows = cohort.rows(ids)
    outputs = network.predict(gene_x=cohort.expression[rows],
                              image_x=cohort.embedding[rows])
    kwargs: dict = {}
    if "survival" in outputs:
        risks = outputs["survival"].reshape(-1)
        times, events = cohort.time[rows], cohort.event[rows]
        if aggregation == "patient":
            groups = patient_groups(cohort, ids)
            firsts = [group[0] for group in groups]
            risks = np.array([np.median(risks[group]) for group in groups])
            times, events = times[firsts], events[firsts]
        kwargs.update(risks=risks, times=times, events=events)
    if "grade" in outputs:
        kwargs.update(log_probs=outputs["grade"],
                      true_grades=cohort.grade[rows],
                      k=len(DEFAULT_GRADE_NAMES))
    return build_metrics(tie_rule=tie_rule, **kwargs)


def train(network: Network, cohort, train_ids, profile: TrainingProfile,
          eval_ids=None, out_dir=None, *, tie_rule: str = "half",
          aggregation: str = "sample") -> tuple[Network, TrainingHistory]:
    """Run the batched loop and return the trained network plus history.

    Each epoch reshuffles the training ids with an epoch-keyed stream and
    walks them in batches (last one may be short), each gathered from both
    cohort matrices by the ids' rows; forward skips the one the variant
    does not read. Per iteration: forward with live dropout, the scheduled
    loss(es), backprop, and one Adam step with decoupled weight decay at
    the linearly decayed epoch rate. A survival-only iteration whose batch
    has no observed events records a zero loss and skips the update.

    With ``eval_ids`` set, every epoch ends with ``evaluate_network`` on
    them, under ``tie_rule`` and ``aggregation``, and its report is kept in
    ``history.snapshots``. The epoch's score is the mean of the report's
    c-index and micro-F1 over the tasks the schedule trains, and
    ``history.best_epoch`` is the first epoch with the highest score.

    With ``out_dir`` set, checkpoints land in out_dir/final and
    out_dir/best (the best epoch's parameters; final when no epoch scored)
    along with history.csv. No copy of the parameters is held: an epoch
    that improves the score, unless it is the last, writes them to
    best/params.bin at once, and makes best/ unloadable until the run
    completes it after final/. Without ``out_dir`` nothing is kept. The
    whole run is bit-reproducible from (profile, cohort, split).
    """
    tasks_needed = check_heads(profile.schedule, network.config.heads)

    train_ids = list(train_ids)
    if not train_ids:
        raise ConfigError("empty training id list")
    # Each batch is gathered from the cohort's matrices; no copy of the
    # training rows is made.
    rows = cohort.rows(train_ids)
    times, events = cohort.time[rows], cohort.event[rows]
    grades = cohort.grade[rows] if "grade" in tasks_needed else None

    history = TrainingHistory()
    params = network.params()
    state = AdamState.for_params(params)
    best_dir = None if out_dir is None else Path(out_dir) / "best"
    shuffle_stream = RngStream(profile.seed, _STREAM_SHUFFLE)
    dropout_stream = RngStream(profile.seed, _STREAM_DROPOUT)

    n = len(train_ids)
    c = 0
    best_score = -math.inf
    for epoch in range(profile.epochs):
        # Linear decay from base_lr at epoch 0 to base_lr / epochs at the last.
        rate = profile.base_lr * (1.0 - epoch / profile.epochs)
        perm = shuffle_stream.generator(epoch).permutation(n)
        for start in range(0, n, profile.batch_size):
            idx = perm[start:start + profile.batch_size]
            batch = rows[idx]
            c += 1
            tasks = select_task(c, profile.schedule)
            trace = network.forward(
                gene_x=cohort.expression[batch],
                image_x=cohort.embedding[batch],
                mode="train", rng=dropout_stream, key=(c,))
            total = 0.0
            d_survival = None
            d_grade = None
            zero_events = False
            if "survival" in tasks:
                zero_events = not events[idx].any()
                loss_s, d_survival = cox_loss(trace.outputs["survival"],
                                              times[idx], events[idx])
                total += loss_s
            if "grade" in tasks:
                loss_g, d_grade = nll_loss(trace.outputs["grade"], grades[idx])
                total += loss_g
            task_name = "joint" if len(tasks) == 2 else tasks[0]
            if not math.isfinite(total):
                raise NumericError(
                    f"non-finite loss {total} at iteration {c} "
                    f"(epoch {epoch}, task {task_name})")
            skipped = zero_events and tasks == ("survival",)
            history.records.append(IterationRecord(
                iteration=c, epoch=epoch, task=task_name, loss=total,
                lr=rate, zero_event_batch=zero_events))
            if skipped:
                continue
            grads = network.backward(trace, d_survival=d_survival,
                                     d_grade=d_grade)
            adam_step(params, grads, state, rate,
                      weight_decay=profile.weight_decay)
        if eval_ids is not None:
            report = evaluate_network(network, cohort, eval_ids, tie_rule,
                                      aggregation)
            parts = [report[key] for task, key in _TASK_METRICS
                     if task in tasks_needed and report[key] is not None]
            score = float(np.mean(parts)) if parts else None
            history.snapshots.append(EpochSnapshot(epoch, report, score))
            if score is not None and score > best_score:
                best_score = score
                history.best_epoch = epoch
                if best_dir is not None and epoch < profile.epochs - 1:
                    save_params(network, best_dir)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        final_sha256 = save_checkpoint(network, out_dir / "final")
        if history.best_epoch in (None, profile.epochs - 1):
            # best/ holds the final parameters, already hashed.
            save_checkpoint(network, best_dir, final_sha256)
        else:
            save_checkpoint(network, best_dir, params_saved=True)
        history.to_csv(out_dir / "history.csv")
    return network, history
