"""Tests for the training protocol, projection, and freezing."""

import os
import select
import signal
import threading
import time
from collections import Counter

import numpy as np
import pytest

from protoreg import losses, metrics, trainer
from protoreg.backbone import Backbone
from protoreg.config import INFERENCE_CHUNK, resolve_config
from protoreg.data import SynthDataset, augment_batch
from protoreg.engine import Adam, Tensor, no_grad
from protoreg.gradcheck import TINY_CFG, tiny_model
from protoreg.model import Model

from baseline import train_baseline


def tiny_dataset(n=12, seed=0, grades=4):
    rng = np.random.default_rng(seed)
    y = np.array([1.0 + (i % grades) for i in range(n)])
    return SynthDataset(
        images=rng.uniform(size=(n, 3, 8, 8)),
        y=y,
        y_categorical=y.copy(),
        label_mode="categorical",
        split="train",
    )


def from_forked_child(produce) -> bytes:
    """The bytes that produce() returns in a forked child; fails the test if
    the child has not finished within 30 s."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            os.write(write_end, produce())
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        got = b""
        while select.select([read_end], [], [], 30.0)[0]:
            chunk = os.read(read_end, 1 << 16)
            if not chunk:
                return got
            got += chunk
        pytest.fail("forked child did not finish within 30 s")
    finally:
        os.close(read_end)
        if os.waitpid(pid, os.WNOHANG) == (0, 0):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def tiny_cfg(augment=False, **train):
    """TINY_CFG resolved with slow rates, k = 2 and delta_l = 1; train holds
    further train-section overrides."""
    train = {**TINY_CFG["train"], "lr_backbone": 1e-3, "lr_protolayer": 1e-3,
             "lr_head": 1e-3, "seed": 0, **train}
    return resolve_config({**TINY_CFG, "data": {**TINY_CFG["data"], "augment": augment},
                           "loss": {"k": 2, "delta_l": 1.0}, "train": train})


def project(model, ds):
    return trainer.project_prototypes(model, model.latents_np(ds.images))


def groups(model):
    """The parameter groups that the protocol's stages train."""
    return model.groups()


def snapshot(model):
    return {name: [p.data.copy() for p in params] for name, params in groups(model).items()}


def moved(before, after):
    """Names of the groups whose bytes differ between two snapshots."""
    return {name for name in before
            if any(a.tobytes() != b.tobytes() for a, b in zip(before[name], after[name]))}


def protocol_snapshots(model, ds, cfg):
    """run_protocol with a snapshot before training ("start") and after each
    stage, keyed (cycle, stage) in the order the stages finished; returns the
    snapshots, whether every parameter required grad at each stage's end, and
    the log."""
    snaps, grads = {"start": snapshot(model)}, []

    def callback(stage, cycle, m):
        snaps[cycle, stage] = snapshot(m)
        grads.append(all(p.requires_grad for p in m.params()))

    log = trainer.run_protocol(model, ds, cfg, stage_callback=callback)
    return snaps, grads, log


class TestFreezing:
    """Each stage moves exactly its own groups, bitwise."""

    def test_joint_stage_freezes_head(self):
        snaps, _, _ = protocol_snapshots(tiny_model(seed=0), tiny_dataset(), tiny_cfg(cycles=2))
        # cycle 0 warms up first; a cycle after the first has no warm-up epochs
        assert moved(snaps["start"], snaps[0, "joint"]) == {"trunk", "added", "prototypes"}
        assert moved(snaps[0, "lastlayer"], snaps[1, "joint"]) == {"trunk", "added", "prototypes"}

    def test_warmup_freezes_trunk(self):
        # all epochs are warm-up: only the added block and prototypes move
        cfg = tiny_cfg(joint_epochs=2, warmup_epochs=2)
        snaps, _, _ = protocol_snapshots(tiny_model(seed=0), tiny_dataset(), cfg)
        assert moved(snaps["start"], snaps[0, "joint"]) == {"added", "prototypes"}

    def test_lastlayer_freezes_everything_but_head(self):
        snaps, _, _ = protocol_snapshots(tiny_model(seed=0), tiny_dataset(), tiny_cfg(cycles=2))
        for cycle in range(2):
            assert moved(snaps[cycle, "joint"], snaps[cycle, "projection"]) == {"prototypes"}
            assert moved(snaps[cycle, "projection"], snaps[cycle, "lastlayer"]) == {"theta"}

    def test_requires_grad_restored_after_stage(self):
        model = tiny_model(seed=0)
        _, grads, _ = protocol_snapshots(model, tiny_dataset(), tiny_cfg(cycles=2))
        assert grads == [True] * 6
        assert all(p.requires_grad for p in model.params())


def live_lastlayer(model, ds, cfg, rng):
    """The last-layer stage with a full forward pass per batch; per-epoch loss terms."""
    t, lo = cfg["train"], cfg["loss"]
    opt = Adam([model.theta], t["lr_head"])
    frozen = model.backbone.params() + [model.bank.vectors]
    for p in frozen:
        p.requires_grad = False
    rows = []
    for _ in range(t["lastlayer_epochs"]):
        order = rng.permutation(len(ds))
        sums, batches = np.zeros(3), 0
        for start in range(0, len(ds), t["batch_size"]):
            idx = order[start : start + t["batch_size"]]
            images = ds.images[idx]
            if cfg["data"]["augment"]:
                images = augment_batch(images, rng)
            r = model.forward(Tensor(images))
            y = ds.y[idx]
            mse = losses.mse(r.y_hat, y)
            clst = losses.cluster_loss(r.dmin, y, model.bank.labels, lo["k"], lo["delta_l"])
            psd = losses.psd_loss(r.dmin, model.bank.d_max)
            losses.total_loss(mse, clst, psd, lo).backward()
            opt.step()
            model.theta.grad = None
            sums += (mse.item(), clst.item(), psd.item())
            batches += 1
        rows.append(sums / batches)
    for p in frozen:
        p.requires_grad = True
    return rows


@pytest.mark.parametrize("kind", ["reciprocal", "log"])
def test_batch_loss_stores_a_gradient_per_parameter(kind):
    """After one backward pass every parameter holds a float64 array of its own
    shape, whichever op stored its first or later contributions."""
    model = tiny_model(seed=1, similarity_kind=kind)
    ds = tiny_dataset(n=6, seed=3)
    loss_cfg = resolve_config(TINY_CFG)["loss"]
    trainer._batch_loss(model, ds.images, ds.y, loss_cfg)[0].backward()
    for p in model.params():
        assert type(p.grad) is np.ndarray
        assert (p.grad.dtype, p.grad.shape) == (np.float64, p.data.shape)


def no_grad_outputs(model, ds):
    """dmin, s and y_hat of the chain latents_np -> dmin_np -> head_np, predict_np's
    y_hat, and per_sample_weights' (y_hat, W), all over ds.images."""
    dmin = model.dmin_np(model.latents_np(ds.images))
    return [dmin, *model.head_np(dmin), model.predict_np(ds.images),
            *metrics.per_sample_weights(model, ds)]


def chunk_loop(model, images, size=INFERENCE_CHUNK):
    """dmin, s, y_hat and W of a plain Model.forward per chunk of size consecutive
    images, the last one shorter if size does not divide their number, and the
    latents of a plain Backbone.forward per chunk."""
    chunks = [images[a:a + size] for a in range(0, len(images), size)]
    with no_grad():
        rs = [model.forward(Tensor(chunk)) for chunk in chunks]
        latents = [model.backbone.forward(Tensor(chunk)).data for chunk in chunks]
    dmin, s, y_hat = (np.concatenate([getattr(r, k).data for r in rs])
                      for k in ("dmin", "s", "y_hat"))
    return dmin, s, y_hat, metrics.contribution_matrix(model, s), np.concatenate(latents)


class TestForwardNp:
    """The no-grad passes over a raw image array: latents_np, dmin_np, head_np,
    score_np, predict_np, and metrics.per_sample_weights on top of them."""

    def test_chunk_size_does_not_change_bits(self, monkeypatch):
        from protoreg.model import _map_chunks

        model = tiny_model(seed=4)
        ds = tiny_dataset(n=11, seed=2)
        whole = no_grad_outputs(model, ds)  # one chunk of all 11
        # sizes 1, 2, 5 and 10 leave image 10 alone in the last chunk
        for size in range(1, 12):
            monkeypatch.setattr("protoreg.model.INFERENCE_CHUNK", size)
            counts = _map_chunks(lambda rows: np.array([rows.shape[0]]), ds.images)
            assert counts.tolist() == [size] * (11 // size) + ([11 % size] if 11 % size else [])
            out = no_grad_outputs(model, ds)
            for a, b in zip(out, whole, strict=True):
                assert a.tobytes() == b.tobytes(), size
            # the fused pass, one task per chunk from images to distances
            for a, b in zip(model.score_np(ds.images),
                            model.head_np(model.dmin_np(model.latents_np(ds.images))),
                            strict=True):
                assert a.tobytes() == b.tobytes(), size

    def test_matches_forward(self):
        model = tiny_model(seed=4)
        ds = tiny_dataset(n=5, seed=2)
        dmin, s, y_hat, weights, latents = chunk_loop(model, ds.images)  # one chunk
        expected = [dmin, s, y_hat, y_hat, y_hat, weights]
        for a, b in zip(no_grad_outputs(model, ds), expected, strict=True):
            assert np.array_equal(a, b)
        assert np.array_equal(model.latents_np(ds.images), latents)

    def test_empty_rejected(self):
        model = tiny_model(seed=0)
        empty = tiny_dataset(n=0)
        # every pass goes through model._map_chunks, which makes the check
        for run in (model.latents_np, model.dmin_np, model.score_np, model.predict_np,
                    lambda images: metrics.per_sample_weights(model, empty)):
            with pytest.raises(ValueError, match="^no-grad pass over an empty image array$"):
                run(empty.images)

    def test_latents_and_dmin_match_forward(self, monkeypatch):
        model = tiny_model(seed=4)
        images = tiny_dataset(n=11, seed=2).images
        # size 5 and 10 leave a lone tail image
        for size in (5, 10, 64):
            monkeypatch.setattr("protoreg.model.INFERENCE_CHUNK", size)
            dmin, *_, forward = chunk_loop(model, images, size)
            latents = model.latents_np(images)
            assert latents.tobytes() == forward.tobytes(), size
            assert model.dmin_np(latents).tobytes() == dmin.tobytes(), size


class TestChunkPool:
    """latents_np and dmin_np map their chunks over a thread pool."""

    @pytest.mark.parametrize("n", [1, 2, 64, 65, 129, 1000])
    def test_matches_plain_chunk_loop(self, n):
        from protoreg import engine

        model = tiny_model(seed=4)
        ds = tiny_dataset(n=n, seed=n)
        dmin, s, y_hat, weights, latents = chunk_loop(model, ds.images)
        assert model.latents_np(ds.images).tobytes() == latents.tobytes()
        expected = [dmin, s, y_hat, y_hat, y_hat, weights]
        for a, b in zip(no_grad_outputs(model, ds), expected, strict=True):
            assert a.tobytes() == b.tobytes()
        assert engine._GRAD_ENABLED is True

    def test_workers_record_no_graph(self):
        from protoreg import engine
        from protoreg.model import _map_chunks

        model = tiny_model(seed=4)
        images = np.random.default_rng(0).uniform(size=(129, 3, 8, 8))
        results = []

        def y_hat(rows):
            results.append(model.forward(Tensor(rows)).y_hat)
            return results[-1].data

        assert _map_chunks(y_hat, images).shape == (129,)
        assert sorted(r.data.shape[0] for r in results) == [1, 64, 64]
        assert all(r._parents == () and not r.requires_grad for r in results)
        assert engine._GRAD_ENABLED is True
        with engine.no_grad():
            model.predict_np(images)
            assert engine._GRAD_ENABLED is False
        assert engine._GRAD_ENABLED is True

    def test_shape_error_raised_through_the_pool(self):
        from protoreg import engine
        from protoreg.engine import ShapeError

        model = tiny_model(seed=4)
        bad = np.zeros((129, 1, 8, 8))
        with engine.no_grad(), pytest.raises(ShapeError) as plain:
            model.forward(Tensor(bad[:64]))
        for run in (model.predict_np, model.latents_np):
            with pytest.raises(ShapeError) as pooled:
                run(bad)
            assert str(pooled.value) == str(plain.value)
        with pytest.raises(ShapeError):
            model.dmin_np(np.zeros((129, 5, 2, 2)))
        assert engine._GRAD_ENABLED is True

    def test_workers_take_the_callers_error_state(self):
        from protoreg.model import _map_chunks

        def overflow(rows):
            return np.exp(rows)

        rows = np.full(129, 1000.0)
        with np.errstate(over="ignore"):  # and no warning from a worker
            assert np.isinf(_map_chunks(overflow, rows)).all()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _map_chunks(overflow, rows)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two CPUs, so that two chunks run at once")
    def test_raises_once_every_started_chunk_has_ended(self, monkeypatch):
        from protoreg.model import _map_chunks

        monkeypatch.setattr("protoreg.model.INFERENCE_CHUNK", 1)  # rows 0 and 1 in two chunks
        running, finished = threading.Event(), threading.Event()

        def fn(rows):
            if rows[0] == 0:
                running.wait(10.0)
                raise ValueError("chunk 0")
            running.set()
            time.sleep(0.2)
            finished.set()
            return rows

        with pytest.raises(ValueError, match="^chunk 0$"):
            _map_chunks(fn, np.arange(2))
        assert finished.is_set()

    def test_first_failing_chunk_in_chunk_order_is_raised(self, monkeypatch):
        from protoreg.model import _map_chunks

        monkeypatch.setattr("protoreg.model.INFERENCE_CHUNK", 1)  # rows 0 and 1 in two chunks

        def fn(rows):
            if rows[0] == 0:
                time.sleep(0.1)
            raise ValueError(f"chunk {rows[0]}")

        with pytest.raises(ValueError, match="^chunk 0$"):
            _map_chunks(fn, np.arange(2))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_scores_after_parent_pass(self):
        # the parent's pass makes the pool; a forked child has none of its threads
        model = tiny_model(seed=4)
        images = np.random.default_rng(0).uniform(size=(130, 3, 8, 8))
        want = model.predict_np(images).tobytes()
        assert from_forked_child(lambda: model.predict_np(images).tobytes()) == want

    @pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity"),
                        reason="needs os.fork and os.sched_setaffinity")
    def test_child_pinned_to_one_cpu_runs_on_one_thread(self):
        # what keeps N ablate children at N pool threads, not N x N
        from protoreg.model import _map_chunks

        model = tiny_model(seed=4)
        images = np.random.default_rng(0).uniform(size=(129, 3, 8, 8))

        def y_hat(rows):
            return model.forward(Tensor(rows)).y_hat.data

        want = _map_chunks(y_hat, images).tobytes()  # makes our pool

        def pinned_pass():
            os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])
            ran = []

            def recorded(rows):
                ran.append(threading.get_ident())
                return y_hat(rows)

            out = _map_chunks(recorded, images)
            return bytes([len(ran), len(set(ran))]) + out.tobytes()

        got = from_forked_child(pinned_pass)
        assert got[:2] == bytes([3, 1])  # 3 chunks, all on one thread
        assert got[2:] == want

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two CPUs the process may use")
    def test_each_pool_worker_is_pinned_to_one_of_the_callers_cpus(self):
        from protoreg.model import _map_chunks

        cpus, caller = os.sched_getaffinity(0), threading.get_ident()
        ran = []

        def recorded(rows):
            ran.append((threading.get_ident(), os.sched_getaffinity(0)))
            return rows

        _map_chunks(recorded, np.zeros(1000))
        assert len(ran) == 16
        assert all(ident != caller and len(on) == 1 and on <= cpus for ident, on in ran)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_a_worker_that_cannot_pin_runs_unpinned(self, monkeypatch):
        # a CPU gone since the caller read its set must not break the cached pool
        from protoreg.model import _pool

        def refuse(pid, cpus):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        pool = _pool.__wrapped__(os.getpid(), (0,))  # uncached, so no later pass finds it
        try:
            assert pool.submit(lambda: 7).result() == 7
        finally:
            pool.shutdown()

    def test_unpinned_pool_without_the_affinity_calls(self, monkeypatch):
        # every CPU is the caller's set, and each worker runs unpinned
        from protoreg import model as model_mod

        model = tiny_model(seed=4)
        images = np.random.default_rng(0).uniform(size=(129, 3, 8, 8))
        want = [a.tobytes() for a in model.score_np(images)]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        pools, uncached, ran = [], model_mod._pool.__wrapped__, []

        def fresh(pid, cpus):  # so its workers start without the affinity calls
            pools.append(uncached(pid, cpus))
            return pools[-1]

        def recorded(rows):
            ran.append(threading.get_ident())
            return rows

        monkeypatch.setattr(model_mod, "_pool", fresh)
        try:
            assert [a.tobytes() for a in model.score_np(images)] == want
            model_mod._map_chunks(recorded, np.zeros(129))
        finally:
            for pool in pools:
                pool.shutdown()
        assert [pool._max_workers for pool in pools] == [os.cpu_count()] * 2
        assert len(ran) == 3 and threading.get_ident() not in ran


class TestLastLayerCache:
    """The stage reads cached distances; it must train exactly as a live forward does."""

    @pytest.mark.parametrize("augment", [False, True])
    def test_matches_live_forward(self, augment, monkeypatch):
        # 14 samples in batches of 6: the tail batch holds 2. With no joint
        # epochs the protocol is projection and then the last-layer stage.
        ds = tiny_dataset(n=14, seed=2)
        cfg = tiny_cfg(augment=augment, lastlayer_epochs=3, lr_head=1e-2, joint_epochs=0,
                       warmup_epochs=0, seed=5)
        ref_model = tiny_model(seed=4)
        project(ref_model, ds)
        ref_rows = live_lastlayer(ref_model, ds, cfg, np.random.default_rng(5))

        model = tiny_model(seed=4)
        seen = []
        forward = Backbone.forward

        def counting(self, x):
            seen.append(x.data.shape[0])
            return forward(self, x)

        monkeypatch.setattr(Backbone, "forward", counting)
        log = trainer.run_protocol(model, ds, cfg)
        assert np.array_equal(model.bank.vectors.data, ref_model.bank.vectors.data)
        assert np.array_equal(model.theta.data, ref_model.theta.data)
        assert [e["stage"] for e in log.epochs] == ["lastlayer"] * len(ref_rows)
        for e, ref in zip(log.epochs, ref_rows):
            assert [e["mse"], e["clst"], e["psd"]] == ref.tolist()  # bitwise
        # the first pass is projection's
        if augment:  # augmented images differ per epoch: one pass per batch
            assert seen == [14] + [6, 6, 2] * cfg["train"]["lastlayer_epochs"]
        else:  # no backbone pass: the distances come from projection's latents
            assert seen == [14]

    def test_protocol_shares_the_projection_pass(self, monkeypatch):
        ds = tiny_dataset(n=14, seed=2)
        cfg = tiny_cfg(cycles=2)

        def run():
            model = tiny_model(seed=4)
            log = trainer.run_protocol(model, ds, cfg)
            return model.theta.data, [[e["mse"], e["clst"], e["psd"]] for e in log.epochs]

        # reference: the last-layer cache forwards the split itself
        dmin_np = Model.dmin_np
        monkeypatch.setattr(Model, "dmin_np",
                            lambda self, latents: dmin_np(self, self.latents_np(ds.images)))
        ref_theta, ref_rows = run()
        monkeypatch.setattr(Model, "dmin_np", dmin_np)

        seen = []
        forward = Backbone.forward

        def counting(self, x):
            seen.append(x.data.shape[0])
            return forward(self, x)

        monkeypatch.setattr(Backbone, "forward", counting)
        theta, rows = run()
        assert theta.tobytes() == ref_theta.tobytes()
        assert rows == ref_rows
        # every joint epoch forwards the split once, and each cycle's
        # projection and last-layer cache share one more pass
        t = cfg["train"]
        assert sum(seen) == t["cycles"] * (t["joint_epochs"] + 1) * len(ds)


class TestProjection:
    def test_matches_brute_force_oracle(self):
        model = tiny_model(seed=1)
        ds = tiny_dataset(n=6, seed=3)
        latents = model.latents_np(ds.images)
        n, c_z, h, w = latents.shape
        report = project(model, ds)
        for j in range(model.bank.m):
            best, best_pos = np.inf, None
            for i in range(n):
                for r in range(h):
                    for c in range(w):
                        patch = latents[i, :, r, c]
                        # oracle computed against the pre-projection vector,
                        # so recompute from the report's moved distance
                        d = float(np.sum((patch - model.bank.vectors.data[j]) ** 2))
                        if d < best:
                            best, best_pos = d, (i, r, c)
            # after projection the prototype IS some training patch: nearest
            # distance is exactly 0 and positions match scan-order argmin
            assert best == 0.0
            rec = report[j]
            patch = latents[best_pos[0], :, best_pos[1], best_pos[2]]
            assert np.array_equal(model.bank.vectors.data[j], patch)
            assert (rec["sample_id"], rec["row"], rec["col"]) == best_pos

    def test_exact_zero_distance_after_projection(self):
        from protoreg.engine import Tensor, no_grad

        model = tiny_model(seed=2)
        ds = tiny_dataset(n=5, seed=4)
        project(model, ds)
        with no_grad():
            result = model.forward(Tensor(ds.images))
        for j, rec in enumerate(model.bank.provenance):
            dmin_at_source = result.dmap.data[rec.sample_id, j, rec.row, rec.col]
            assert dmin_at_source == 0.0  # exact, not approximate
            assert result.dmin.data[rec.sample_id, j] == 0.0

    def test_idempotent(self):
        model = tiny_model(seed=3)
        ds = tiny_dataset(n=5, seed=5)
        project(model, ds)
        first = model.bank.vectors.data.copy()
        first_prov = [
            (r.sample_id, r.row, r.col) for r in model.bank.provenance
        ]
        report = project(model, ds)
        assert np.array_equal(model.bank.vectors.data, first)
        second_prov = [(r["sample_id"], r["row"], r["col"]) for r in report]
        assert second_prov == first_prov
        assert all(r["moved_sq_dist"] == 0.0 for r in report)

    def test_labels_untouched(self):
        model = tiny_model(seed=0)
        labels_before = model.bank.labels.copy()
        project(model, tiny_dataset(n=4))
        assert np.array_equal(model.bank.labels, labels_before)

    def test_marks_bank_projected(self):
        model = tiny_model(seed=0)
        assert not model.bank.projected
        project(model, tiny_dataset(n=4))
        assert model.bank.projected

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            trainer.project_prototypes(tiny_model(seed=0), np.zeros((0, 4, 2, 2)))


class TestProtocol:
    def test_bookkeeping_counts(self):
        model = tiny_model(seed=0)
        cfg = tiny_cfg(cycles=2, joint_epochs=3, lastlayer_epochs=2, warmup_epochs=1)
        log = trainer.run_protocol(model, tiny_dataset(), cfg)
        stages = [(e["cycle"], e["stage"]) for e in log.epochs]
        # cycle 0: 1 warmup + 2 joint + 2 lastlayer; cycle 1: 3 joint + 2 lastlayer
        assert stages.count((0, "warmup")) == 1
        assert stages.count((0, "joint")) == 2
        assert stages.count((0, "lastlayer")) == 2
        assert stages.count((1, "warmup")) == 0
        assert stages.count((1, "joint")) == 3
        assert stages.count((1, "lastlayer")) == 2
        assert len(log.projections) == 2
        assert len(log.projections[0]["prototypes"]) == model.bank.m

    def test_stage_callback_order(self):
        model = tiny_model(seed=0)
        calls = []
        trainer.run_protocol(
            model, tiny_dataset(), tiny_cfg(cycles=2),
            stage_callback=lambda stage, cycle, m: calls.append((cycle, stage)),
        )
        assert calls == [
            (0, "joint"), (0, "projection"), (0, "lastlayer"),
            (1, "joint"), (1, "projection"), (1, "lastlayer"),
        ]

    def test_reproducible_given_seeds(self):
        runs = []
        for _ in range(2):
            model = tiny_model(seed=7)
            trainer.run_protocol(model, tiny_dataset(seed=1), tiny_cfg(cycles=1, seed=3))
            runs.append((
                model.theta.data.copy(),
                model.bank.vectors.data.copy(),
                [p.data.copy() for p in model.backbone.params()],
            ))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        for a, b in zip(runs[0][2], runs[1][2]):
            assert np.array_equal(a, b)

    def test_training_reduces_total_loss(self):
        model = tiny_model(seed=0)
        cfg = tiny_cfg(cycles=1, joint_epochs=6, warmup_epochs=1, lastlayer_epochs=3)
        log = trainer.run_protocol(model, tiny_dataset(n=24), cfg)
        joint = [e["total"] for e in log.epochs if e["stage"] in ("warmup", "joint")]
        assert joint[-1] < joint[0]

    def test_csv_rows_shape(self):
        model = tiny_model(seed=0)
        log = trainer.run_protocol(model, tiny_dataset(), tiny_cfg())
        rows = log.csv_rows()
        assert rows[0] == "cycle,stage,epoch,mse,clst,psd,total"
        assert len(rows) == 1 + len(log.epochs)
        assert all(len(r.split(",")) == 7 for r in rows[1:])

    def test_empty_dataset_rejected(self):
        empty = SynthDataset(
            images=np.zeros((0, 3, 8, 8)), y=np.zeros(0), y_categorical=np.zeros(0),
            label_mode="categorical", split="train",
        )
        with pytest.raises(ValueError):
            trainer.run_protocol(tiny_model(seed=0), empty, tiny_cfg())

    @pytest.mark.parametrize("train, rows", [
        ({"joint_epochs": 2, "warmup_epochs": 2, "lastlayer_epochs": 1},
         {(0, "warmup"): 2, (0, "lastlayer"): 1, (1, "joint"): 2, (1, "lastlayer"): 1}),
        ({"joint_epochs": 2, "warmup_epochs": 1, "lastlayer_epochs": 0},
         {(0, "warmup"): 1, (0, "joint"): 1, (1, "joint"): 2}),
        ({"joint_epochs": 0, "warmup_epochs": 0, "lastlayer_epochs": 0}, {}),
    ])
    def test_empty_stages(self, train, rows):
        snaps, _, log = protocol_snapshots(tiny_model(seed=0), tiny_dataset(),
                                           tiny_cfg(cycles=2, **train))
        # every stage still finishes, in order, and an empty one logs no rows
        assert list(snaps)[1:] == [(cycle, stage) for cycle in range(2)
                                   for stage in ("joint", "projection", "lastlayer")]
        assert Counter((e["cycle"], e["stage"]) for e in log.epochs) == rows
        if train["lastlayer_epochs"] == 0:
            for cycle in range(2):
                assert moved(snaps[cycle, "projection"], snaps[cycle, "lastlayer"]) == set()
        if not rows:  # no epochs at all: only projection moves anything
            assert moved(snaps["start"], snaps[1, "lastlayer"]) == {"prototypes"}


def overflowing_div_backward():
    b = Tensor(np.array([1e-160]), requires_grad=True)
    Tensor(np.array([1.0])).div(b).sum().backward()  # the gradient of b is -1e320


class TestLocated:
    @pytest.mark.parametrize("block, where", [
        (lambda: Tensor(np.array([1e200])).square(), "joint, cycle 0, epoch 1, in square"),
        (overflowing_div_backward, "joint, cycle 0, epoch 1, in backward"),
        (lambda: np.array([1e200]) * 1e200, "joint, cycle 0, epoch 1"),  # no engine frame
    ])
    def test_names_the_engine_function(self, block, where):
        with pytest.raises(FloatingPointError) as info:
            with np.errstate(over="raise"), trainer._located("joint, cycle 0, epoch 1"):
                block()
        assert str(info.value).startswith(f"non-finite value ({where}): overflow encountered")


class TestBaseline:
    def test_baseline_learns_constant_shortcut(self):
        # with n small and few epochs we only require finite sane outputs
        ds = tiny_dataset(n=16, seed=0)
        test = tiny_dataset(n=8, seed=1)
        mae, train_mse = train_baseline(resolve_config(TINY_CFG), ds, test, epochs=4, lr=3e-3,
                                        seed=0)
        assert np.isfinite(mae) and np.isfinite(train_mse)
        assert mae < 5.0

    def test_baseline_deterministic(self):
        ds = tiny_dataset(n=12, seed=0)
        test = tiny_dataset(n=6, seed=1)
        a = train_baseline(resolve_config(TINY_CFG), ds, test, epochs=2, seed=3)
        b = train_baseline(resolve_config(TINY_CFG), ds, test, epochs=2, seed=3)
        assert a == b

