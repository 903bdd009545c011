"""Tests for the three-stage training protocol, projection, and freezing."""

import numpy as np
import pytest

from protoreg import losses, trainer
from protoreg.backbone import Backbone
from protoreg.config import resolve_config
from protoreg.data import SynthDataset, augment_batch
from protoreg.engine import Adam, Tensor
from protoreg.gradcheck import TINY_CFG, tiny_model

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


def tiny_cfg(augment=False, **train):
    """TINY_CFG resolved with slow rates, k = 2 and delta_l = 1; train holds
    further train-section overrides."""
    train = {**TINY_CFG["train"], "lr_backbone": 1e-3, "lr_protolayer": 1e-3,
             "lr_head": 1e-3, "seed": 0, **train}
    return resolve_config({**TINY_CFG, "data": {**TINY_CFG["data"], "augment": augment},
                           "loss": {"k": 2, "delta_l": 1.0}, "train": train})


def project(model, ds):
    return trainer.project_prototypes(model, ds, model.latents_np(ds.images))


def snapshot(tensors):
    return [t.data.copy() for t in tensors]


def unchanged(tensors, snap):
    return all(np.array_equal(t.data, s) for t, s in zip(tensors, snap))


class TestFreezing:
    def test_joint_stage_freezes_head(self):
        model = tiny_model(seed=0)
        ds = tiny_dataset()
        theta_before = model.theta.data.copy()
        trunk_before = snapshot(model.backbone.params())
        proto_before = model.bank.vectors.data.copy()
        rng = np.random.default_rng(0)
        # a cycle after the first has no warm-up epochs
        trainer.joint_stage(model, ds, tiny_cfg(), rng, trainer.TrainLog(), cycle=1)
        assert np.array_equal(model.theta.data, theta_before)
        assert not unchanged(model.backbone.params(), trunk_before)
        assert not np.array_equal(model.bank.vectors.data, proto_before)

    def test_warmup_freezes_trunk(self):
        model = tiny_model(seed=0)
        ds = tiny_dataset()
        # all epochs are warm-up: only the added block and prototypes move
        cfg = tiny_cfg(joint_epochs=2, warmup_epochs=2)
        added = model.backbone.added_block_params()
        added_ids = {id(p) for p in added}
        trunk = [p for p in model.backbone.params() if id(p) not in added_ids]
        trunk_before = snapshot(trunk)
        added_before = snapshot(added)
        proto_before = model.bank.vectors.data.copy()
        rng = np.random.default_rng(0)
        trainer.joint_stage(model, ds, cfg, rng, trainer.TrainLog(), cycle=0)
        assert unchanged(trunk, trunk_before)  # bitwise
        assert not unchanged(added, added_before)
        assert not np.array_equal(model.bank.vectors.data, proto_before)

    def test_lastlayer_freezes_everything_but_head(self):
        model = tiny_model(seed=0)
        ds = tiny_dataset()
        backbone_before = snapshot(model.backbone.params())
        proto_before = model.bank.vectors.data.copy()
        theta_before = model.theta.data.copy()
        rng = np.random.default_rng(0)
        trainer.lastlayer_stage(model, ds, tiny_cfg(), rng, trainer.TrainLog(), cycle=0,
                                latents=model.latents_np(ds.images))
        assert unchanged(model.backbone.params(), backbone_before)  # bitwise
        assert np.array_equal(model.bank.vectors.data, proto_before)
        assert not np.array_equal(model.theta.data, theta_before)

    def test_requires_grad_restored_after_stage(self):
        model = tiny_model(seed=0)
        ds = tiny_dataset()
        rng = np.random.default_rng(0)
        trainer.lastlayer_stage(model, ds, tiny_cfg(), rng, trainer.TrainLog(), cycle=0,
                                latents=model.latents_np(ds.images))
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


class TestForwardNp:
    def test_chunk_size_does_not_change_bits(self, monkeypatch):
        from protoreg.model import _chunks

        model = tiny_model(seed=4)
        images = tiny_dataset(n=11, seed=2).images
        whole = model.forward_np(images)  # one chunk of all 11
        # sizes 2, 5 and 10 would leave image 10 alone, where its distances differ
        for size in range(2, 11):
            monkeypatch.setattr("protoreg.model.INFERENCE_CHUNK", size)
            assert max(c.stop - c.start for c in _chunks(len(images))) <= size + 1
            out = model.forward_np(images)
            for a, b in zip(out, whole):
                assert a.tobytes() == b.tobytes(), size

    def test_matches_forward(self):
        from protoreg.engine import no_grad

        model = tiny_model(seed=4)
        images = tiny_dataset(n=5, seed=2).images
        out = model.forward_np(images)
        with no_grad():
            r = model.forward(Tensor(images))
        for a, b in zip(out, (r.dmin, r.s, r.y_hat)):
            assert np.array_equal(a, b.data)
        assert np.array_equal(model.latents_np(images), r.latent.data)

    def test_empty_rejected(self):
        model = tiny_model(seed=0)
        # all three passes share model._chunks, which makes the check
        for run in (model.forward_np, model.latents_np, model.dmin_np):
            with pytest.raises(ValueError, match="^no-grad pass over an empty image array$"):
                run(np.zeros((0, 3, 8, 8)))

    def test_latents_and_dmin_match_forward_np(self, monkeypatch):
        from protoreg.engine import no_grad
        from protoreg.model import _chunks

        model = tiny_model(seed=4)
        images = tiny_dataset(n=11, seed=2).images
        # size 5 and 10 fold a lone tail image into the chunk before it
        for size in (5, 10, 64):
            monkeypatch.setattr("protoreg.model.INFERENCE_CHUNK", size)
            whole = model.forward_np(images)
            latents = model.latents_np(images)
            with no_grad():
                forward = [model.forward(Tensor(images[chunk])).latent.data
                           for chunk in _chunks(len(images))]
            assert latents.tobytes() == np.concatenate(forward).tobytes(), size
            dmin = model.dmin_np(latents)
            assert dmin.tobytes() == whole.dmin.tobytes(), size


class TestChunkPool:
    """forward_np, latents_np and dmin_np map their chunks over a thread pool."""

    @pytest.mark.parametrize("n", [1, 2, 64, 65, 129, 1000])
    def test_matches_plain_chunk_loop(self, n):
        from protoreg import engine
        from protoreg.model import _chunks

        model = tiny_model(seed=4)
        images = np.random.default_rng(n).uniform(size=(n, 3, 8, 8))
        with engine.no_grad():
            rs = [model.forward(Tensor(images[chunk])) for chunk in _chunks(n)]
        plain = [np.concatenate([getattr(r, k).data for r in rs])
                 for k in ("dmin", "s", "y_hat", "latent")]
        latents = model.latents_np(images)
        pooled = [*model.forward_np(images), latents]
        for a, b in zip(pooled, plain):
            assert a.tobytes() == b.tobytes()
        assert model.dmin_np(latents).tobytes() == plain[0].tobytes()
        assert engine._GRAD_ENABLED is True

    def test_workers_record_no_graph(self):
        from protoreg import engine
        from protoreg.model import _chunks, _map_chunks

        model = tiny_model(seed=4)
        images = np.random.default_rng(0).uniform(size=(129, 3, 8, 8))
        results = _map_chunks(lambda chunk: model.forward(Tensor(images[chunk])).y_hat,
                              _chunks(129))
        assert [r.data.shape[0] for r in results] == [64, 65]
        assert all(r._parents == () and not r.requires_grad for r in results)
        assert engine._GRAD_ENABLED is True
        with engine.no_grad():
            model.forward_np(images)
            assert engine._GRAD_ENABLED is False
        assert engine._GRAD_ENABLED is True

    def test_shape_error_raised_through_the_pool(self):
        from protoreg import engine
        from protoreg.engine import ShapeError

        model = tiny_model(seed=4)
        bad = np.zeros((129, 1, 8, 8))
        with engine.no_grad(), pytest.raises(ShapeError) as plain:
            model.forward(Tensor(bad[:64]))
        for run in (model.forward_np, model.latents_np):
            with pytest.raises(ShapeError) as pooled:
                run(bad)
            assert str(pooled.value) == str(plain.value)
        with pytest.raises(ShapeError):
            model.dmin_np(np.zeros((129, 5, 2, 2)))
        assert engine._GRAD_ENABLED is True


class TestLastLayerCache:
    """The stage reads cached distances; it must train exactly as a live forward does."""

    @pytest.mark.parametrize("augment", [False, True])
    def test_matches_live_forward(self, augment, monkeypatch):
        # 14 samples in batches of 6: the tail batch holds 2
        ds = tiny_dataset(n=14, seed=2)
        cfg = tiny_cfg(augment=augment, lastlayer_epochs=3, lr_head=1e-2)
        ref_model = tiny_model(seed=4)
        project(ref_model, ds)
        ref_rows = live_lastlayer(ref_model, ds, cfg, np.random.default_rng(5))

        model = tiny_model(seed=4)
        project(model, ds)
        latents = model.latents_np(ds.images)
        seen = []
        forward = Backbone.forward

        def counting(self, x):
            seen.append(x.data.shape[0])
            return forward(self, x)

        monkeypatch.setattr(Backbone, "forward", counting)
        log = trainer.TrainLog()
        trainer.lastlayer_stage(model, ds, cfg, np.random.default_rng(5), log, cycle=0,
                                latents=latents)
        assert np.array_equal(model.theta.data, ref_model.theta.data)
        assert len(log.epochs) == len(ref_rows)
        for e, ref in zip(log.epochs, ref_rows):
            assert [e["mse"], e["clst"], e["psd"]] == ref.tolist()  # bitwise
        if augment:  # augmented images differ per epoch: one pass per batch
            assert seen == [6, 6, 2] * cfg["train"]["lastlayer_epochs"]
        else:  # no backbone pass: the distances come from the given latents
            assert seen == []

    def test_protocol_shares_the_projection_pass(self, monkeypatch):
        ds = tiny_dataset(n=14, seed=2)
        cfg = tiny_cfg(cycles=2)

        def run():
            model = tiny_model(seed=4)
            log = trainer.run_protocol(model, ds, cfg)
            return model.theta.data, [[e["mse"], e["clst"], e["psd"]] for e in log.epochs]

        # reference: the last-layer stage forwards the split itself
        stage = trainer.lastlayer_stage
        monkeypatch.setattr(trainer, "lastlayer_stage",
                            lambda model, data, *args, latents: stage(
                                model, data, *args, latents=model.latents_np(data.images)))
        ref_theta, ref_rows = run()
        monkeypatch.setattr(trainer, "lastlayer_stage", stage)

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
        model = tiny_model(seed=0)
        empty = SynthDataset(
            images=np.zeros((0, 3, 8, 8)), y=np.zeros(0), y_categorical=np.zeros(0),
            label_mode="categorical", split="train",
        )
        with pytest.raises(ValueError, match="empty"):
            trainer.project_prototypes(model, empty, np.zeros((0, 4, 2, 2)))


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
        assert model.cursor == {"cycle": 1, "stage": "lastlayer"}

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

