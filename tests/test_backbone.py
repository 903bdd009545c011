import numpy as np
import pytest

from protoreg.backbone import Backbone
from protoreg.config import ConfigError, resolve_config
from protoreg.engine import ShapeError, Tensor, no_grad
from protoreg.model import Model

DESK = resolve_config()  # 32x32x3 -> 6x6x16


def make_backbone(seed=0, config=DESK):
    return Backbone(config, np.random.default_rng(seed))


class TestConfig:
    def test_desk_stack_reaches_6x6(self):
        # (32 -k3 s2-> 15 -k3 s2-> 7 -k2 s1-> 6 -k1 s1-> 6)
        out = make_backbone().forward(Tensor(np.zeros((1, 3, 32, 32))))
        assert out.data.shape == (1, 16, 6, 6)

    def test_wrong_latent_grid_rejected(self):
        # the grid is what the block stack computes; it cannot be stated apart
        with pytest.raises(ConfigError, match="unknown config key: model.latent_hw"):
            resolve_config({"model": {"latent_hw": [9, 9]}})

    def test_degenerate_grid_rejected(self):
        # 8 -k3 s2-> 3 -k3 s1-> 1
        with pytest.raises(ConfigError, match=r"model.backbone_blocks maps \[8, 8\] images "
                                              r"to a 1x1 latent grid"):
            resolve_config({"data": {"image_hw": [8, 8]},
                            "model": {"backbone_blocks": [[4, 3, 2], [4, 3, 1]]}})

    def test_last_block_channels_must_match_c_z(self):
        # c_z is the last block's out_channels, so a disagreeing key cannot be stated
        with pytest.raises(ConfigError, match="unknown config key: model.c_z"):
            resolve_config({"model": {"c_z": 32}})
        cfg = resolve_config({"model": {"backbone_blocks": [[8, 3, 2], [32, 3, 2]]}})
        out = make_backbone(config=cfg).forward(Tensor(np.zeros((1, 3, 32, 32))))
        assert out.data.shape == (1, 32, 7, 7)


class TestForward:
    def test_outputs_in_open_unit_interval(self):
        bb = make_backbone()
        out = bb.forward(Tensor(np.random.default_rng(1).uniform(size=(2, 3, 32, 32))))
        assert out.data.shape == (2, 16, 6, 6)
        assert out.data.min() > 0.0 and out.data.max() < 1.0

    def test_deterministic(self):
        bb = make_backbone()
        x = np.random.default_rng(2).uniform(size=(1, 3, 32, 32))
        a = bb.forward(Tensor(x)).data
        b = bb.forward(Tensor(x)).data
        assert np.array_equal(a, b)

    def test_dimension_mismatch_lists_expected(self):
        bb = make_backbone()
        with pytest.raises(ShapeError, match="expected images"):
            bb.forward(Tensor(np.zeros((1, 3, 16, 16))))


class TestLayout:
    def test_block_outputs_are_channels_last(self):
        # every conv2d and bias_act output is an (N,C,H,W)-shaped array of
        # (N,H,W,C) memory, so no block transposes its input or output
        images = np.random.default_rng(4).uniform(size=(2, 3, 32, 32))
        node = make_backbone().forward(Tensor(images))
        ops = []
        while node._parents:
            ops.append(node._op)
            assert node.data.shape[0] == 2 and node.data.transpose(0, 2, 3, 1).flags.c_contiguous
            assert not node.data.flags.c_contiguous, node._op
            node = node._parents[0]
        assert ops == ["bias_act", "conv2d"] * 4

    @pytest.mark.parametrize("blocks", [None, [[8, 3, 2], [16, 3, 2]]],
                             ids=["default", "two-blocks"])
    def test_one_image_forward_matches_its_batch_row(self, blocks):
        # a lone image's latent patches are C-contiguous rows, as in a batch, so the
        # distances, and everything after them, have the batch's bits
        cfg = DESK if blocks is None else resolve_config({"model": {"backbone_blocks": blocks}})
        model = Model.from_config(cfg)
        images = np.random.default_rng(3).uniform(size=(6, 3, 32, 32))
        with no_grad():
            batch = model.forward(Tensor(images))
            latents = model.backbone.forward(Tensor(images)).data
            for i in range(len(images)):
                one = model.forward(Tensor(images[i : i + 1]))
                latent = model.backbone.forward(Tensor(images[i : i + 1])).data
                assert latent.tobytes() == latents[i : i + 1].tobytes(), i
                for k in ("dmin", "s", "y_hat"):
                    assert (getattr(one, k).data.tobytes()
                            == getattr(batch, k).data[i : i + 1].tobytes()), (i, k)


class TestGroups:
    @pytest.mark.parametrize("blocks", [None, [[8, 3, 2], [16, 3, 2]]],
                             ids=["default", "two-blocks"])
    def test_groups_in_payload_order(self, blocks):
        # the added block is the last two conv layers; the trunk is every block before them
        cfg = DESK if blocks is None else resolve_config({"model": {"backbone_blocks": blocks}})
        model = Model.from_config(cfg)
        bb = model.backbone
        convs = [[w, b] for w, b in zip(bb.weights, bb.biases)]
        want = {"trunk": sum(convs[:-2], []), "added": sum(convs[-2:], []),
                "prototypes": [model.bank.vectors], "theta": [model.theta]}
        groups = model.groups()
        assert list(groups) == list(want)
        for name, tensors in want.items():
            assert [id(t) for t in groups[name]] == [id(t) for t in tensors], name
        assert [id(p) for p in model.params()] == [id(t) for g in groups.values() for t in g]
