"""Lane-change prediction: labeling, a small MLP classifier, and filters.

Samples are labeled with a time-window rule anchored at the end point t_end
of each maneuver the simulator ran, ``TrajectoryLog.plans``, the event list
``pipeline.ground_truth_bits`` scores predictions against: log rows in
[t_end - tau, t_end] are positive, and those of an equally sized window
shifted tau + tau_g seconds earlier are negative. The gap keeps
near-boundary frames with near-identical features out of opposite classes;
at tau_g 0 the windows share an edge row, which stays positive only.

Features read one snapshot's per-lane order (``scene._lane_index``), which
the snapshot's owner builds once and hands to every subject in it:
``pipeline.simulate_run`` per inference tick, labeling per log row.

The classifier is a deliberately small input-hidden-output network trained
with seeded mini-batch gradient descent on standardized features; training
and inference are deterministic given the seed. Its logistic output is
1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) elsewhere, NaN included, with
e^-|z| taken as exp(min(z, -z)) so that a NaN keeps its sign bit. Training
and inference are bit-exact to that form evaluated element by element, as
in the reference copy that tests/oracles.py keeps. The filters smooth one car's
0/1 prediction bits, thresholded off the twin store by ``pipeline._traced``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .params import FRACTION, NONNEGATIVE, POSITIVE, Checked, rule
from .scene import LOG_PERIOD, TrajectoryLog, VehicleState, _follower, _lane_index, _leader

SENTINEL_GAP = 200.0
FEATURE_SIZE = 13
MODEL_FORMAT = "lanesight-mlp-v1"
# the most epochs a fit may take: about 40 min on the default dataset on one Xeon core
MAX_EPOCHS = 10**7
# the most hidden units: at it, train on seeds 1-3 takes 90 s and peaks at 143 MB on
# one core of a 2-vCPU Xeon host, and writes a 37 MB model file
MAX_HIDDEN = 10**5


class DegenerateDataset(Exception):
    """Training data is empty or holds a single class, or the fit diverged."""


@dataclass(frozen=True)
class WindowParams(Checked):
    tau: float = field(default=5.0, metadata=POSITIVE)
    tau_g: float = field(default=3.0, metadata=NONNEGATIVE)
    # samples per second; a faster rate would put several samples on one log row
    sample_rate: float = field(default=2.0, metadata=rule(lambda x: 0 < x <= 1 / LOG_PERIOD))


@dataclass(frozen=True)
class LabeledSample:
    features: tuple[float, ...]
    label: int
    t: float
    vehicle_id: int


def features_from_states(index, subject: VehicleState, lane_count: int) -> list[float]:
    """Subject speed plus (speed difference, bumper gap) for six neighbor slots.

    ``index`` is the ``scene._lane_index`` of the snapshot holding the subject.
    Slot order: lead/lag in the subject's own lane, the lane to its left, and
    the lane to its right. Absent neighbors carry (0, SENTINEL_GAP). Ties go
    to the first vehicle in the order the index was built from.
    """
    feats = [subject.v]
    for lane in (subject.lane, subject.lane + 1, subject.lane - 1):
        if lane < 0 or lane >= lane_count:
            feats += [0.0, SENTINEL_GAP, 0.0, SENTINEL_GAP]
            continue
        for neighbor in (_leader(index, subject, lane), _follower(index, subject, lane)):
            if neighbor is None:
                feats += [0.0, SENTINEL_GAP]
            else:
                gap = abs(neighbor.s - subject.s) - 0.5 * (neighbor.length + subject.length)
                feats += [neighbor.v - subject.v, gap]
    return feats


def _sample(log: TrajectoryLog, vehicle_id: int, row: int, label: int) -> LabeledSample:
    feats = features_from_states(_lane_index(log.states_at(row)),
                                 log.state_at(vehicle_id, row), log.lanes.lane_count)
    return LabeledSample(tuple(feats), label, row * log.dt, vehicle_id)


def _window_rows(log: TrajectoryLog, hi: float, w: WindowParams) -> list[int]:
    """The log rows of [hi - tau, hi], ascending: the newest row at or below hi,
    then every 1/sample_rate seconds back the row at or above that time, less
    the rows outside the log."""
    lo, n = hi - w.tau, len(log.times)
    if lo - 1e-9 > (n - 1) * log.dt:  # wholly past the log, however far: skip its rows
        return []
    top = math.floor(hi / log.dt + 1e-9)
    rows, row, k = [], top, 0
    while row >= 0 and row * log.dt >= lo - 1e-9:
        if row < n:
            rows.append(row)
        k += 1
        row = top - math.floor(k / (w.sample_rate * log.dt) + 1e-9)
    return rows[::-1]


def label_windows(events, log: TrajectoryLog, w: WindowParams) -> list[LabeledSample]:
    """Positive then negative samples of each lane change's two windows; a
    negative row at or above the positive window's start is dropped."""
    samples: list[LabeledSample] = []
    for event in events:
        lo = event.t_end - w.tau
        samples += [_sample(log, event.vehicle_id, row, 1)
                    for row in _window_rows(log, event.t_end, w)]
        samples += [_sample(log, event.vehicle_id, row, 0)
                    for row in _window_rows(log, lo - w.tau_g, w) if row * log.dt < lo - 1e-9]
    return samples


def nonchanger_negatives(log: TrajectoryLog, events,
                         w: WindowParams) -> list[LabeledSample]:
    """Extra negatives from car-kind vehicles that never change lanes.

    Off the paper's recipe: the shifted-window negatives alone never show
    e.g. slow queued traffic, so a classifier trained without these can
    only guess there. Sampling every 5 s keeps the classes roughly
    balanced.
    """
    changed = {e.vehicle_id for e in events}
    rows = range(0, len(log.times), round(5.0 / log.dt))
    return [_sample(log, vid, row, 0) for vid in log.vehicle_ids
            if vid not in changed and log.kind_of(vid) == "car" for row in rows]


@dataclass(frozen=True)
class TrainConfig(Checked):
    hidden: int = field(default=48, metadata=rule(lambda x: 0 < x <= MAX_HIDDEN))
    learning_rate: float = field(default=0.01, metadata=POSITIVE)
    epochs: int = field(default=300, metadata=rule(lambda x: 0 < x <= MAX_EPOCHS))
    batch_size: int = field(default=32, metadata=POSITIVE)
    seed: int = field(default=0, metadata=NONNEGATIVE)
    # add negatives from vehicles that never change lanes (nonchanger_negatives)
    include_nonchangers: bool = True


@dataclass
class MlpModel:
    """Input-hidden-output network: rectifier hidden layer, logistic output."""

    w1: np.ndarray  # (hidden, FEATURE_SIZE)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float
    feat_mean: np.ndarray
    feat_std: np.ndarray

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    def standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.feat_mean) / self.feat_std


def _sigmoid(z):
    """The logistic function from one e^-|z| per element, which never overflows."""
    e = np.exp(np.minimum(z, -z))
    d = e + 1.0
    return np.where(z >= 0, 1.0 / d, e / d)


def _forward(w1, b1, w2, b2, x):
    """The logits and the rectified hidden layer of standardized inputs x."""
    hidden = x @ w1.T
    hidden += b1
    np.maximum(hidden, 0.0, out=hidden)
    return hidden @ w2 + b2, hidden


def _backward(w2, x, y, z, hidden):
    """Gradients (w1, b1, w2, b2) of the mean cross-entropy of logits z, at
    standardized inputs x with labels y, from the forward pass's hidden layer."""
    delta = _sigmoid(z)
    delta -= y
    delta /= len(y)
    back = delta[:, None] * w2
    back *= hidden > 0
    return back.T @ x, back.sum(axis=0), hidden.T @ delta, float(delta.sum())


@np.errstate(over="ignore", invalid="ignore")  # a diverged fit is refused, not warned of
def train(dataset: list[LabeledSample], cfg: TrainConfig = TrainConfig()) -> MlpModel:
    """Seeded mini-batch gradient descent on the labeled samples; DegenerateDataset
    when the dataset is empty or holds a single class, or a weight ends non-finite."""
    if not dataset:
        raise DegenerateDataset("empty dataset")
    x = np.asarray([s.features for s in dataset], dtype=float)
    y = np.asarray([s.label for s in dataset], dtype=float)
    if len(set(y.tolist())) < 2:
        raise DegenerateDataset("training data has a single class")

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0

    rng = seeding.rng_for(cfg.seed, seeding.TRAINING)
    w1 = rng.normal(0.0, np.sqrt(2.0 / FEATURE_SIZE), size=(cfg.hidden, FEATURE_SIZE))
    b1 = np.zeros(cfg.hidden)
    w2 = rng.normal(0.0, np.sqrt(1.0 / cfg.hidden), size=cfg.hidden)
    b2 = 0.0

    xs = (x - mean) / std
    n, size, lr = len(y), cfg.batch_size, cfg.learning_rate
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        x_epoch, y_epoch = xs[order], y[order]
        for start in range(0, n, size):
            xb = x_epoch[start:start + size]
            z, hidden = _forward(w1, b1, w2, b2, xb)
            g_w1, g_b1, g_w2, g_b2 = _backward(w2, xb, y_epoch[start:start + size], z, hidden)
            for w, g in ((w1, g_w1), (b1, g_b1), (w2, g_w2)):
                g *= lr
                w -= g
            b2 -= lr * g_b2
    if not all(np.isfinite(w).all() for w in (w1, b1, w2, b2)):
        raise DegenerateDataset("training diverged to a non-finite weight; lower "
                                "training.learning_rate")
    return MlpModel(w1=w1, b1=b1, w2=w2, b2=b2, feat_mean=mean, feat_std=std)


def infer(model: MlpModel, features) -> float | list[float]:
    """Forward pass returning the lane-change probability of one feature row, or
    the list of them for a stack of rows. A model that overflows gives NaN
    without a warning; ``twinlink.publish_advisory`` rejects it.

    Each row passes as its own (1, FEATURE_SIZE) slice of a stacked operand, so
    NumPy makes the same vector-matrix BLAS call per row as for a lone row and
    a batch is bit-equal to row-by-row calls; a (rows, FEATURE_SIZE) matrix
    product would go to gemm and round differently."""
    x = np.asarray(features, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        z, _ = _forward(model.w1, model.b1, model.w2, model.b2,
                        model.standardize(x)[..., None, :])
        prob = _sigmoid(z)
    return float(prob[0]) if x.ndim == 1 else prob[:, 0].tolist()


@dataclass(frozen=True)
class FilterParams(Checked):
    """Smoothing windows for aggressive_filter and conservative_filter."""

    tau_a: int = field(default=3, metadata=NONNEGATIVE)
    tau_c: int = field(default=3, metadata=NONNEGATIVE)
    thres: float = field(default=0.5, metadata=FRACTION)


def aggressive_filter(bits: np.ndarray, tau_a: int) -> np.ndarray:
    """0/1 bits with each positive propagated over the following tau_a timesteps."""
    out = np.zeros_like(bits)
    n = len(bits)
    for t in range(n):
        if bits[t] == 1:
            out[t:min(t + tau_a + 1, n)] = 1
    return out


def conservative_filter(bits: np.ndarray, tau_c: int, thres: float) -> np.ndarray:
    """0/1 bits, positive only where the trailing (tau_c + 1)-wide mean of the
    input bits exceeds thres."""
    out = np.zeros_like(bits)
    for t in range(tau_c, len(bits)):
        if bits[t - tau_c:t + 1].mean() > thres:
            out[t] = 1
    return out


def save_model(model: MlpModel, path):
    doc = {
        "format": MODEL_FORMAT,
        "layer_sizes": [FEATURE_SIZE, model.hidden, 1],
        "feat_mean": model.feat_mean.tolist(),
        "feat_std": model.feat_std.tolist(),
        "w1": model.w1.tolist(),
        "b1": model.b1.tolist(),
        "w2": model.w2.tolist(),
        "b2": model.b2,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def load_model(path) -> MlpModel:
    """Read a saved model; ValueError unless its arrays fit [FEATURE_SIZE, hidden, 1],
    every value is finite and every feat_std is positive."""
    with open(path) as fh:
        doc = json.load(fh)
    fmt = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
    if fmt != MODEL_FORMAT:
        raise ValueError(f"unsupported model file format: {fmt!r}")
    model = MlpModel(
        w1=np.asarray(doc["w1"], dtype=float),
        b1=np.asarray(doc["b1"], dtype=float),
        w2=np.asarray(doc["w2"], dtype=float),
        b2=float(doc["b2"]),
        feat_mean=np.asarray(doc["feat_mean"], dtype=float),
        feat_std=np.asarray(doc["feat_std"], dtype=float),
    )
    hidden = model.b1.size
    shapes = {"w1": (hidden, FEATURE_SIZE), "b1": (hidden,), "w2": (hidden,),
              "feat_mean": (FEATURE_SIZE,), "feat_std": (FEATURE_SIZE,)}
    misfit = [name for name, shape in shapes.items() if getattr(model, name).shape != shape]
    if misfit or doc.get("layer_sizes") != [FEATURE_SIZE, hidden, 1]:
        raise ValueError(f"{', '.join(misfit) or 'layer_sizes'}: does not fit "
                         f"layer sizes [{FEATURE_SIZE}, {hidden}, 1]")
    unfit = [name for name in (*shapes, "b2") if not np.isfinite(getattr(model, name)).all()]
    if unfit:
        raise ValueError(f"{', '.join(unfit)}: expected finite values")
    if (model.feat_std <= 0.0).any():
        raise ValueError("feat_std: expected positive values")
    return model
