"""Reference computations and output checks for the benchmark.

The reference side is plain numpy written apart from protoreg: it reads the
PRCK1 checkpoint format itself, runs a loop convolution forward pass from the
checkpoint's tensors, computes sparsity and diversity by sort and cumulative
sum, and the MAE of the constant predictor. Each ``check_*`` function returns
a list of problems (empty when the output is correct); the benchmark reports
a run as incorrect when any check returns a problem.
"""

from __future__ import annotations

import json
import struct

import numpy as np

REL_TOL = 1e-9
SPARSITY_COVER = 0.8
DIVERSITY_SHARE = 0.01
TOP_SET = 5


# -- reference computations ----------------------------------------------------


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, name -> float64 array) from a PRCK1 checkpoint file."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:5] != b"PRCK1":
        raise ValueError(f"{path}: not a PRCK1 checkpoint")
    _, header_len = struct.unpack_from("<IQ", blob, 5)
    start = 5 + 12
    header = json.loads(blob[start : start + header_len].decode())
    payload = np.frombuffer(blob[start + header_len :], dtype="<f8")
    tensors, offset = {}, 0
    for meta in header["tensors"]:
        size = int(np.prod(meta["shape"]))
        tensors[meta["name"]] = payload[offset : offset + size].reshape(meta["shape"])
        offset += size
    return header, tensors


def conv_loop(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    """Valid convolution of one (C,H,W) image, one output value at a time."""
    k, _, kh, kw = w.shape
    _, h, wd = x.shape
    oh, ow = (h - kh) // stride + 1, (wd - kw) // stride + 1
    out = np.empty((k, oh, ow))
    for r in range(oh):
        for c in range(ow):
            patch = x[:, r * stride : r * stride + kh, c * stride : c * stride + kw]
            for o in range(k):
                out[o, r, c] = np.sum(w[o] * patch) + b[o]
    return out


def forward(header: dict, tensors: dict, image: np.ndarray) -> dict:
    """Latent, min distances, similarities, weights and prediction for one image."""
    blocks = header["config"]["model"]["backbone_blocks"]
    x = image
    for i, (_, _, stride) in enumerate(blocks):
        x = conv_loop(x, tensors[f"backbone.w{i}"], tensors[f"backbone.b{i}"], stride)
        x = 1.0 / (1.0 + np.exp(-x)) if i == len(blocks) - 1 else np.maximum(x, 0.0)
    protos, theta = tensors["prototypes"], tensors["theta"]
    labels = np.asarray(header["labels"])
    dist = ((x[None] - protos[:, :, None, None]) ** 2).sum(axis=1)
    dmin = dist.reshape(len(protos), -1).min(axis=1)
    d_max = float(protos.shape[1])  # squared-distance supremum in the unit cube
    eps = header["eps"]
    if header["similarity_kind"] == "reciprocal":
        s = 1.0 / (dmin / d_max + eps)
    else:
        s = np.log((dmin + 1.0) / (dmin + eps))
    weights = s * theta**2 / labels
    return {"latent": x, "dmin": dmin, "s": s, "weights": weights,
            "y_hat": float(np.sum(weights * labels) / np.sum(weights))}


def sparsity(w: np.ndarray) -> int:
    """Count of largest weights whose cumulative sum first covers 80% of the total."""
    cum = np.cumsum(np.sort(w)[::-1])
    return int(np.count_nonzero(cum < SPARSITY_COVER * cum[-1] - 1e-12) + 1)


def top_sets(weights: np.ndarray) -> np.ndarray:
    """(n, 5) indices of each row's largest weights, ties to the lower index."""
    return np.argsort(-weights, axis=1, kind="stable")[:, :TOP_SET]


def diversity(weights: np.ndarray) -> int:
    """Prototypes that sit in the top-5 set of at least 1% of the rows."""
    counts = np.bincount(top_sets(weights).ravel(), minlength=weights.shape[1])
    return int(np.count_nonzero(counts >= DIVERSITY_SHARE * len(weights) - 1e-12))


def usage_histogram(weights: np.ndarray) -> np.ndarray:
    counts = np.bincount(top_sets(weights).ravel(), minlength=weights.shape[1])
    return counts / counts.sum()


def constant_mae(y_train: np.ndarray, y_test: np.ndarray) -> float:
    """MAE of the predictor that always outputs the training-label mean."""
    return float(np.mean(np.abs(y_test - np.mean(y_train))))


# -- checks --------------------------------------------------------------------


def _close(a, b, tol: float = REL_TOL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= tol * np.maximum(np.abs(a), np.abs(b))))


def check_projection(header: dict, tensors: dict, train_latents: np.ndarray) -> list[str]:
    """Each prototype is bit for bit the training latent patch at its provenance."""
    problems = []
    for j, prov in enumerate(header["provenance"]):
        if prov is None:
            problems.append(f"prototype {j} has no provenance")
            continue
        patch = train_latents[prov["sample_id"], :, prov["row"], prov["col"]]
        if tensors["prototypes"][j].tobytes() != patch.tobytes():
            problems.append(f"prototype {j} differs from training patch {prov}")
    return problems


def check_forward(header: dict, tensors: dict, images: np.ndarray, ids,
                  y_hat: np.ndarray, weights: np.ndarray) -> list[str]:
    """The program's predictions and weights agree with the loop forward pass."""
    problems = []
    for i in ids:
        ref = forward(header, tensors, images[i])
        if not _close(ref["y_hat"], y_hat[i]):
            problems.append(f"sample {i}: y_hat {y_hat[i]!r} vs reference {ref['y_hat']!r}")
        if not _close(ref["weights"], weights[i]):
            problems.append(f"sample {i}: weights differ from the reference forward pass")
    return problems


def check_predictions(y_hat: np.ndarray, labels, y_train: np.ndarray,
                      y_test: np.ndarray, margin: float | None) -> list[str]:
    """Predictions stay in the label range and, given a margin, beat the constant predictor."""
    problems = []
    lo, hi = min(labels), max(labels)
    if not np.all((y_hat >= lo) & (y_hat <= hi)):
        problems.append(f"predictions outside [{lo}, {hi}]")
    mae, base = float(np.mean(np.abs(y_hat - y_test))), constant_mae(y_train, y_test)
    if margin is not None and not mae < base - margin:
        problems.append(f"test MAE {mae:.4f} not below constant-predictor MAE "
                        f"{base:.4f} by {margin}")
    return problems


def check_eval_metrics(result: dict, weights: np.ndarray) -> list[str]:
    """metrics.json sparsity and diversity equal the reference computation."""
    problems = []
    spars = float(np.mean([sparsity(w) for w in weights]))
    if result["s_spars_mean"] != spars:
        problems.append(f"s_spars_mean {result['s_spars_mean']!r} vs reference {spars!r}")
    if result["diversity"] != diversity(weights):
        problems.append(f"diversity {result['diversity']} vs reference {diversity(weights)}")
    return problems


def check_explanation(doc: dict, fractions: np.ndarray, weights_row: np.ndarray,
                      tensors: dict | None = None) -> list[str]:
    """One rendered explanation document against the per-sample weights.

    With ``tensors`` and a document that lists every prototype, y_hat is also
    recomputed as sum(w*l)/sum(w) from the reported similarities, theta and
    labels.
    """
    problems = []
    sid = doc["sample_id"]
    if abs(float(np.sum(fractions)) - 1.0) > 1e-12:
        problems.append(f"sample {sid}: weight fractions sum to {np.sum(fractions)!r}")
    recs = doc["records"]
    ws = [r["weight"] for r in recs]
    if any(a < b for a, b in zip(ws, ws[1:])):
        problems.append(f"sample {sid}: records not in descending weight order")
    for r in recs:
        j = r["prototype"]
        if not (_close(r["weight"], weights_row[j])
                and _close(r["weight_fraction"], weights_row[j] / weights_row.sum())):
            problems.append(f"sample {sid}: prototype {j} weight differs from evaluation")
    if tensors is not None and len(recs) == len(weights_row):
        th2 = tensors["theta"] ** 2
        w = np.array([r["similarity"] * th2[r["prototype"]] / r["label"] for r in recs])
        y = float(np.sum(w * [r["label"] for r in recs]) / np.sum(w))
        if not _close(y, doc["y_hat"]):
            problems.append(f"sample {sid}: y_hat {doc['y_hat']!r} vs sum(w*l)/sum(w) {y!r}")
    return problems


def check_embedding(report, weights: np.ndarray) -> list[str]:
    """Usage histogram sums to 1 and matches the reference; PCA fractions are sane."""
    problems = []
    hist = np.asarray(report.histogram)
    if abs(float(hist.sum()) - 1.0) > 1e-12:
        problems.append(f"usage histogram sums to {hist.sum()!r}")
    if not np.allclose(hist, usage_histogram(weights), rtol=0, atol=1e-12):
        problems.append("usage histogram differs from the reference top-5 counts")
    ev1, ev2 = report.explained_variance
    if not (0.0 < ev2 <= ev1 <= 1.0 and ev1 + ev2 <= 1.0 + 1e-12):
        problems.append(f"explained-variance fractions {ev1!r}, {ev2!r} invalid")
    return problems


def check_ablation_row(row: dict, m: int, max_err: float) -> list[str]:
    """One ablation.csv row lies in the valid ranges of its metrics."""
    problems = []
    name = row["variant"]
    if not 0.0 <= row["mae"] <= max_err:
        problems.append(f"{name}: MAE {row['mae']} outside [0, {max_err}]")
    if not 0.0 <= row["accuracy"] <= 1.0:
        problems.append(f"{name}: accuracy {row['accuracy']} outside [0, 1]")
    if not 1.0 <= row["s_spars_mean"] <= m:
        problems.append(f"{name}: s_spars_mean {row['s_spars_mean']} outside [1, {m}]")
    if not 1 <= row["diversity"] <= m:
        problems.append(f"{name}: diversity {row['diversity']} outside [1, {m}]")
    return problems
