"""End-to-end tests of the command line surface on a tiny configuration."""

import json
import os
import platform
import re
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import protoreg
from protoreg import cli, metrics
from protoreg.backbone import Backbone
from protoreg.cli import main
from protoreg.config import INFERENCE_CHUNK, resolve_config
from protoreg.data import load_dataset, save_dataset
from protoreg.model import load_checkpoint


def assert_numeric_fields(rows: list[str], skip_columns: int):
    """Every field after the first skip_columns of each data row parses as a float."""
    for row in rows[1:]:
        for field in row.split(",")[skip_columns:]:
            float(field)


TINY_CFG = {
    "data": {
        "image_hw": [8, 8],
        "train_per_grade": 6,
        "test_per_grade": 3,
        "grades": 2,
        "blobs_per_grade": 1,
        "blob_radius": [1.0, 1.3],
    },
    "model": {
        "m": 3,
        "backbone_blocks": [[4, 3, 2], [4, 2, 1], [4, 1, 1]],
    },
    "train": {
        "cycles": 1,
        "joint_epochs": 2,
        "lastlayer_epochs": 1,
        "warmup_epochs": 1,
        "batch_size": 6,
    },
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """gen-data + train once; downstream commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CFG))
    data_dir, run_dir = root / "data", root / "run"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(run_dir)]) == 0
    return root


class TestGenData:
    def test_artifacts(self, workdir):
        data_dir = workdir / "data"
        assert (data_dir / "train.insd").exists()
        assert (data_dir / "test.insd").exists()
        cfg = json.loads((data_dir / "resolved_config.json").read_text())
        assert cfg["model"]["m"] == 3
        train = load_dataset(data_dir / "train.insd")
        assert len(train) == 12  # 2 grades x 6 per grade
        assert len(load_dataset(data_dir / "test.insd")) == 6

    def test_continuous_mode(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        overrides = json.loads(json.dumps(TINY_CFG))
        overrides["data"]["continuous"] = True
        cfg_path.write_text(json.dumps(overrides))
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
        train = load_dataset(out / "train.insd")
        assert train.label_mode == "continuous"
        assert not np.array_equal(train.y, train.y_categorical)

    def test_deterministic_bytes(self, workdir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY_CFG))
        out = tmp_path / "data2"
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "train.insd").read_bytes() == \
            (workdir / "data" / "train.insd").read_bytes()


class TestTrain:
    def test_artifacts(self, workdir):
        run = workdir / "run"
        assert (run / "checkpoint.bin").exists()
        # per-stage checkpoints: 1 cycle x (joint, projection, lastlayer)
        for stage in ("joint", "projection", "lastlayer"):
            assert (run / f"checkpoint_c0_{stage}.bin").exists()
        log = (run / "training_log.csv").read_text().strip().splitlines()
        assert log[0] == "cycle,stage,epoch,mse,clst,psd,total"
        assert len(log) == 1 + 2 + 1  # header + joint(incl. warmup) + lastlayer
        assert_numeric_fields(log, skip_columns=2)  # cycle, stage
        projections = json.loads((run / "projection_report.json").read_text())
        assert len(projections) == 1
        assert len(projections[0]["prototypes"]) == 3

    def test_final_checkpoint_is_projected_model(self, workdir):
        model, _ = load_checkpoint(workdir / "run" / "checkpoint.bin")
        assert model.bank.projected
        assert (workdir / "run" / "checkpoint.bin").read_bytes() == \
            (workdir / "run" / "checkpoint_c0_lastlayer.bin").read_bytes()

    def test_retrain_byte_identical(self, workdir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY_CFG))
        out = tmp_path / "run2"
        assert main(["train", "--config", str(cfg_path),
                     "--data", str(workdir / "data"), "--out", str(out)]) == 0
        assert (out / "checkpoint.bin").read_bytes() == \
            (workdir / "run" / "checkpoint.bin").read_bytes()
        assert (out / "training_log.csv").read_text() == \
            (workdir / "run" / "training_log.csv").read_text()


class TestEval:
    def test_metrics_json(self, workdir):
        out = workdir / "eval"
        assert main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                     "--data", str(workdir / "data"), "--out", str(out)]) == 0
        result = json.loads((out / "metrics.json").read_text())
        assert set(result) == {"mae", "accuracy", "s_spars_mean", "diversity",
                               "n_samples"}
        assert result["n_samples"] == 6
        per_sample = (out / "per_sample.csv").read_text().strip().splitlines()
        assert per_sample[0] == "sample_id,y,y_hat,abs_err,s_spars"
        assert len(per_sample) == 7
        assert_numeric_fields(per_sample, skip_columns=0)

    def test_eval_deterministic_bytes(self, workdir, tmp_path):
        out2 = tmp_path / "eval2"
        assert main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                     "--data", str(workdir / "data"), "--out", str(out2)]) == 0
        assert (out2 / "metrics.json").read_bytes() == \
            (workdir / "eval" / "metrics.json").read_bytes()

    def test_wrong_image_shape_exits_2(self, workdir, tmp_path, capsys):
        test = load_dataset(workdir / "data" / "test.insd")
        # 130 images of the wrong size, so the pass has three chunks
        save_dataset(replace(test, images=np.zeros((130, 3, 9, 9)), y=np.ones(130),
                             y_categorical=np.ones(130)), tmp_path / "test.insd")
        rc = main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                   "--data", str(tmp_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: expected")


class TestDispatch:
    def eval_argv(self, workdir, out) -> list[str]:
        return ["eval", "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                "--data", str(workdir / "data"), "--out", str(out)]

    def test_two_calls_build_one_parser(self, workdir, tmp_path):
        cli.build_parser.cache_clear()
        assert main(self.eval_argv(workdir, tmp_path / "a")) == 0
        assert main(self.eval_argv(workdir, tmp_path / "b")) == 0
        assert cli.build_parser.cache_info().misses == 1

    def test_main_runs_the_cmd_function_the_module_holds_when_called(self, workdir, tmp_path,
                                                                      monkeypatch):
        assert main(self.eval_argv(workdir, tmp_path / "a")) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.out) or 7)
        assert main(self.eval_argv(workdir, tmp_path / "b")) == 7
        assert seen == [str(tmp_path / "b")]
        assert not (tmp_path / "b").exists()


# Sets the process's CPUs (a comma-separated list) and then runs the command line.
_ON_CPUS = """
import os, sys
os.sched_setaffinity(0, [int(c) for c in sys.argv[1].split(",")])
from protoreg.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs the process may use")
def test_eval_bytes_do_not_depend_on_the_worker_count(workdir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_CFG, "data": {**TINY_CFG["data"],
                                                         "test_per_grade": 70}}))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "data")]) == 0
    src = str(Path(protoreg.__file__).resolve().parents[1])
    cpus = sorted(os.sched_getaffinity(0))
    files = {"eval": ("metrics.json", "per_sample.csv"),
             "embed": ("embedding.csv", "embedding.svg", "usage_histogram.svg")}
    outputs = []
    for on in (cpus[:1], cpus[:2]):  # one pinned pool worker, then two
        outputs.append([])
        for command, names in files.items():
            out = tmp_path / f"{command}_{len(on)}"
            subprocess.run([sys.executable, "-c", _ON_CPUS, ",".join(map(str, on)), command,
                            "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                            "--data", str(tmp_path / "data"), "--out", str(out)],
                           check=True, capture_output=True,
                           env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
            outputs[-1] += [(out / name).read_bytes() for name in names]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][0])["n_samples"] == 140


@pytest.fixture
def backbone_images(monkeypatch):
    """A list that grows by the batch size of every Backbone.forward call."""
    seen = []
    forward = Backbone.forward

    def counting(self, x):
        seen.append(x.data.shape[0])
        return forward(self, x)

    monkeypatch.setattr(Backbone, "forward", counting)
    return seen


class TestSinglePass:
    def test_eval_forwards_each_image_once(self, workdir, tmp_path, backbone_images):
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                     "--data", str(workdir / "data"), "--out", str(out)]) == 0
        test = load_dataset(workdir / "data" / "test.insd")
        assert sum(backbone_images) == len(test)
        model, cfg = load_checkpoint(workdir / "run" / "checkpoint.bin")
        expected = metrics.evaluate(model, test, grades=cfg["data"]["grades"])
        assert json.loads((out / "metrics.json").read_text()) == expected
        y_hat, weights = metrics.per_sample_weights(model, test)
        rows = [r.split(",") for r in (out / "per_sample.csv").read_text().splitlines()[1:]]
        assert [float(r[2]) for r in rows] == y_hat.tolist()
        assert [int(r[4]) for r in rows] == [metrics.sparsity(w) for w in weights]

    def test_embed_forwards_each_image_once(self, workdir, tmp_path, backbone_images):
        assert main(["embed", "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                     "--data", str(workdir / "data"), "--out", str(tmp_path / "embed")]) == 0
        assert sum(backbone_images) == len(load_dataset(workdir / "data" / "test.insd"))

    def test_no_per_row_metric_calls(self, workdir, tmp_path, monkeypatch):
        def per_row(*args, **kwargs):
            raise AssertionError("a single-row metric was called")

        monkeypatch.setattr(metrics, "sparsity", per_row)
        monkeypatch.setattr(metrics, "top_contributor_set", per_row)
        for command in ("eval", "embed"):
            assert main([command, "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                         "--data", str(workdir / "data"),
                         "--out", str(tmp_path / command)]) == 0
        assert (tmp_path / "eval" / "per_sample.csv").exists()
        assert (tmp_path / "embed" / "usage_histogram.svg").exists()


@pytest.fixture
def preads(monkeypatch):
    """A list that grows by the (inode, byte offset, byte count) of every
    os.preadv call: checkpoint payloads are read by os.preadv too."""
    seen = []
    preadv = os.preadv

    def recording(fd, buffers, offset):
        seen.append((os.fstat(fd).st_ino, offset, sum(memoryview(b).nbytes for b in buffers)))
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", recording)
    return seen


def image_reads(preads, path, n: int, image_bytes: int) -> list[tuple[int, int]]:
    """(first image, image count) of each read inside the images of path, an
    n-image .insd file."""
    ino = os.stat(path).st_ino
    return [((offset - 25) // image_bytes, size // image_bytes)
            for file, offset, size in preads if file == ino and offset < 25 + n * image_bytes]


class TestChunkedReads:
    """eval, embed and explain read their images inside the no-grad pass."""

    def test_explain_reads_one_image(self, workdir, tmp_path, preads):
        assert main(["explain", "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                     "--data", str(workdir / "data"), "--sample-ids", "3",
                     "--out", str(tmp_path / "x")]) == 0
        assert image_reads(preads, workdir / "data" / "test.insd", 6, 8 * 3 * 8 * 8) == [(3, 1)]

    @pytest.mark.parametrize("command", ["eval", "embed"])
    def test_no_read_spans_more_than_a_chunk(self, workdir, tmp_path, preads, command):
        rng = np.random.default_rng(0)
        y = 1.0 + np.arange(130) % 2
        save_dataset(replace(load_dataset(workdir / "data" / "test.insd"), y=y,
                             y_categorical=y.copy(), images=rng.uniform(size=(130, 3, 8, 8))),
                     tmp_path / "test.insd")
        preads.clear()
        assert main([command, "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                     "--data", str(tmp_path), "--out", str(tmp_path / "out")]) == 0
        reads = sorted(image_reads(preads, tmp_path / "test.insd", 130, 8 * 3 * 8 * 8))
        assert reads == [(0, INFERENCE_CHUNK), (INFERENCE_CHUNK, INFERENCE_CHUNK),
                         (2 * INFERENCE_CHUNK, 130 - 2 * INFERENCE_CHUNK)]


class TestExplain:
    def test_artifacts(self, workdir):
        out = workdir / "explain"
        assert main(["explain", "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                     "--data", str(workdir / "data"), "--sample-ids", "0,3",
                     "--out", str(out)]) == 0
        for sid in (0, 3):
            doc = json.loads((out / f"explanation_{sid}.json").read_text())
            assert doc["projected"] is True
            assert len(doc["records"]) == 3
            for rec in doc["records"]:
                assert rec["provenance"] is not None
                pgm = (out / rec["activation_map_file"]).read_bytes()
                assert pgm.startswith(b"P5\n8 8\n255\n")

    def test_out_of_range_sample(self, workdir, tmp_path, capsys):
        rc = main(["explain", "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                   "--data", str(workdir / "data"), "--sample-ids", "99",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_top_k_below_one(self, workdir, tmp_path, capsys, top_k):
        rc = main(["explain", "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                   "--data", str(workdir / "data"), "--sample-ids", "0",
                   "--top-k", top_k, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"error: top_k must be >= 1, got {top_k}" in capsys.readouterr().err
        assert not list((tmp_path / "x").glob("explanation_*.json"))


class TestEmbed:
    def test_artifacts(self, workdir):
        out = workdir / "embed"
        assert main(["embed", "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                     "--data", str(workdir / "data"), "--out", str(out)]) == 0
        csv = (out / "embedding.csv").read_text().strip().splitlines()
        assert csv[0] == "id,kind,x,y,label"
        kinds = [line.split(",")[1] for line in csv[1:]]
        assert kinds.count("prototype") == 3
        assert kinds.count("sample") > 0
        assert (out / "embedding.svg").read_text().startswith("<svg")
        assert (out / "usage_histogram.svg").read_text().startswith("<svg")


_START_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

# for the tests whose cell ends through os._exit, which in this process would end the test run
two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs the process may use, so that the cell runs in a child")


class TestAblate:
    def test_matrix(self, workdir):
        out = workdir / "ablate"
        assert main(["ablate", "--config", str(workdir / "data" / "resolved_config.json"),
                     "--data", str(workdir / "data"), "--out", str(out),
                     "--seeds", "1"]) == 0
        csv = (out / "ablation.csv").read_text().strip().splitlines()
        assert len(csv) == 1 + 6  # header + 6 variants x 1 seed
        variants = {line.split(",")[0] for line in csv[1:]}
        assert variants == {"base", "log_similarity", "no_psd", "no_clst",
                            "no_clst_no_psd", "k1"}
        assert (out / "ablation.md").read_text().startswith("|")
        with pytest.raises(ChildProcessError):  # every forked cell worker has been waited for
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two CPUs the process may use")
    def test_bytes_do_not_depend_on_the_cpu_count(self, workdir, tmp_path):
        src = str(Path(protoreg.__file__).resolve().parents[1])
        cpus = sorted(os.sched_getaffinity(0))
        outputs = []
        for on in (cpus[:1], cpus):  # every cell in this process, then one process per CPU
            out = tmp_path / f"ablate_{len(on)}"
            subprocess.run([sys.executable, "-c", _ON_CPUS, ",".join(map(str, on)), "ablate",
                            "--config", str(workdir / "data" / "resolved_config.json"),
                            "--data", str(workdir / "data"), "--out", str(out), "--seeds", "2"],
                           check=True, capture_output=True,
                           env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
            outputs.append([(out / name).read_bytes() for name in ("ablation.csv", "ablation.md")])
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0].decode().splitlines()) == 1 + 6 * 2

    # with --seeds 1 on two CPUs, this process runs cells 0-2 (base, log_similarity,
    # no_psd) and a forked child runs cells 3-5 (no_clst, no_clst_no_psd, k1)
    @pytest.mark.parametrize("failing, first", [
        ({"k1"}, "k1"),
        ({"no_clst", "k1"}, "no_clst"),
        ({"no_psd", "k1"}, "no_psd"),
    ])
    def test_first_failing_cell_exits_2(self, workdir, tmp_path, capfd, monkeypatch,
                                        failing, first):
        def columns(cfg):  # the config columns of an ablation.csv row
            return (cfg["model"]["similarity"], cfg["loss"]["alpha_clst"],
                    cfg["loss"]["alpha_psd"], cfg["loss"]["k"])

        variant_of = {columns(cli.cell_config(resolve_config(TINY_CFG), over, 0)): name
                      for name, over in cli.ABLATION_VARIANTS}
        real = cli.train_run

        def train_run(cfg, train_ds, out=None):
            name = variant_of[columns(cfg)]
            if name in failing:
                raise ValueError(f"cell {name} failed")
            return real(cfg, train_ds, out)

        monkeypatch.setattr(cli, "train_run", train_run)  # before the fork, so children see it
        rc = main(["ablate", "--config", str(workdir / "data" / "resolved_config.json"),
                   "--data", str(workdir / "data"), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capfd.readouterr().err == f"error: cell {first} failed\n"
        assert not (tmp_path / "out" / "ablation.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cells", [list(range(7)), [5], []])
    def test_map_cells_keeps_cell_order(self, cells):
        # on two CPUs, seven cells are cut into runs of 3 and 4
        assert cli.map_cells(lambda c: c * c, cells) == [c * c for c in cells]

    @pytest.mark.parametrize("failing, first", [({2, 5}, 2), ({5}, 5)])
    def test_map_cells_raises_first_failing_cell(self, failing, first):
        def square(c):
            if c in failing:
                raise ValueError(f"cell {c} failed")
            return c * c

        with pytest.raises(ValueError, match=f"^cell {first} failed$"):
            cli.map_cells(square, list(range(7)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # these two compare with the CPUs the test process had when it started, so a
    # map_cells that leaves this thread narrowed fails them whatever ran first
    @two_cpus
    def test_map_cells_runs_each_share_on_its_own_cpu(self):
        cpus = _START_CPUS
        # one cell per CPU: this process runs cell 0 on the first, a child each later one
        ran = cli.map_cells(lambda c: sorted(os.sched_getaffinity(0)), list(range(len(cpus))))
        assert ran == [[cpu] for cpu in cpus]
        assert sorted(os.sched_getaffinity(0)) == cpus

    @two_cpus
    def test_map_cells_restores_the_cpus_when_its_own_share_raises(self):
        cpus, seen = _START_CPUS, []

        def fail_here(c):
            if c == 0:
                seen.append(sorted(os.sched_getaffinity(0)))
                raise ValueError("cell 0 failed")
            return c

        with pytest.raises(ValueError, match="^cell 0 failed$"):
            cli.map_cells(fail_here, [0, 1])
        assert seen == [cpus[:1]]
        assert sorted(os.sched_getaffinity(0)) == cpus

    def test_other_commands_do_not_import_multiprocessing(self, workdir, tmp_path):
        src = str(Path(protoreg.__file__).resolve().parents[1])
        code = ("import sys\n"
                "from protoreg.cli import main\n"
                "for command in ('eval', 'embed'):\n"
                "    assert main([command, '--checkpoint', sys.argv[1], '--data', sys.argv[2],\n"
                "                 '--out', sys.argv[3] + command]) == 0\n"
                "assert 'multiprocessing' not in sys.modules\n")
        subprocess.run([sys.executable, "-c", code, str(workdir / "run" / "checkpoint.bin"),
                        str(workdir / "data"), str(tmp_path / "out_")],
                       check=True, capture_output=True,
                       env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})

    @two_cpus
    def test_dead_worker_raises_oserror(self):
        with pytest.raises(OSError, match=r"cell worker \d+ ended with exit code 3 and no result"):
            cli.map_cells(lambda c: os._exit(3) if c == 3 else c, [0, 1, 2, 3])
        with pytest.raises(ChildProcessError):  # the dead worker has been waited for
            os.waitpid(-1, os.WNOHANG)

    @two_cpus
    def test_dead_worker_exits_2(self, workdir, tmp_path, capfd, monkeypatch):
        real = cli.train_run

        def train_run(cfg, train_ds, out=None):  # k1 is cell 5, run by the child
            if cfg["loss"]["k"] == 1:
                os._exit(3)
            return real(cfg, train_ds, out)

        monkeypatch.setattr(cli, "train_run", train_run)
        rc = main(["ablate", "--config", str(workdir / "data" / "resolved_config.json"),
                   "--data", str(workdir / "data"), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capfd.readouterr().err
        assert re.fullmatch(r"error: cell worker \d+ ended with exit code 3 and no result\n", err)
        assert not (tmp_path / "out" / "ablation.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestGradCheckCommand:
    def test_passes(self, capsys):
        assert main(["grad-check"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 5
        assert all(line.startswith("PASS") for line in lines)


# every rate passes resolve_config, but the step at 1e300 overflows the model's
# next forward pass; with 20 images at batch 30, an epoch is one step
DIVERGED = "non-finite value (joint, cycle 0, epoch 1, in conv2d): overflow encountered in matmul"


def diverging_config(tmp_path) -> Path:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": {"train_per_grade": 4, "test_per_grade": 2},
        "train": {"cycles": 1, "joint_epochs": 2, "warmup_epochs": 0, "lastlayer_epochs": 1,
                  "lr_backbone": 1e300, "lr_protolayer": 1e300}}))
    return cfg


class TestErrors:
    def test_missing_dataset(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_config_not_utf8_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b"\xff\xfe{}")
        rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: config file {cfg} is not valid JSON: 'utf-8' codec can't decode byte 0xff")
        assert not (tmp_path / "d").exists()

    def test_batch_size_zero_rejected_before_data_loads(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"batch_size": 0}}))
        # the dataset path does not exist: only the config check can name the error
        rc = main(["train", "--config", str(cfg), "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "error: train.batch_size must be >= 1, got 0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, message", [
        ({"data": {"image_hw": 32}}, "data.image_hw must be a list of 2 items, got 32"),
        ({"model": {"eps": "x"}}, "model.eps must be a finite number, got 'x'"),
        ({"model": {"m": "10"}}, "model.m must be an integer, got '10'"),
        ({"model": {"m": 100000000}}, "model.m must be <= 1000, got 100000000"),
        ({"train": {"cycles": -1}}, "train.cycles must be >= 1, got -1"),
        ({"train": {"lr_head": -1.0}}, "train.lr_head must be > 0, got -1.0"),
        ({"loss": {"k": 0}}, "loss.k must be >= 1, got 0"),
        ({"train": {"joint_epochs": 1.5}}, "train.joint_epochs must be an integer, got 1.5"),
        ({"model": {"backbone_blocks": [[8, 3, 2], [16, 3, 0]]}},
         "model.backbone_blocks[1][2] must be >= 1, got 0"),
        ({"train": {"batch_size": True}}, "train.batch_size must be an integer, got True"),
        ({"data": {"augment": "yes"}}, "data.augment must be true or false, got 'yes'"),
        ({"data": {"train_per_grade": 100000}},
         "data.train_per_grade and data.test_per_grade ask for a dataset of 12294144000 bytes"),
        ({"data": {"image_hw": [256, 256], "channels": 1, "grades": 2, "train_per_grade": 1,
                   "test_per_grade": 1},
          "model": {"m": 1000, "backbone_blocks": [[256, 1, 1], [256, 1, 1]]}},
         "model.backbone_blocks[0] gives a block output of shape (64, 256, 256, 256)"),
        ({"data": {"image_hw": [256, 256], "channels": 1, "grades": 2, "train_per_grade": 1,
                   "test_per_grade": 1},
          "model": {"m": 1000, "backbone_blocks": [[2, 1, 1], [2, 3, 3]]}},
         "model.m gives a distance map of shape (64, 1000, 85, 85)"),
        ({"data": {"image_hw": [6, 32], "blob_radius": [3.0, 3.0]}},
         "data.blob_radius most 3.0 does not fit a 6x32 image: twice it must be <= 5"),
        ({"model": {"similarity": "log", "eps": 1.0}},
         'model.eps must be < 1 when model.similarity is "log", got 1.0'),
    ])
    def test_bad_value_rejected_before_data_loads(self, tmp_path, capsys, override, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(override))
        rc = main(["train", "--config", str(cfg), "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("radius", [[2.0, 16.0], [15.6, 15.6]])
    def test_blob_wider_than_image_rejected_before_data_is_drawn(self, tmp_path, capsys,
                                                                 radius):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": {"blob_radius": radius}}))
        rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: data.blob_radius most {radius[1]} does not fit a 32x32 image: "
            "twice it must be <= 31\n")
        assert not (tmp_path / "out").exists()

    def test_unplaceable_blobs_exit_2_and_leave_no_split(self, tmp_path, capsys):
        # the placement error rises inside the block iterator that the write consumes
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": {"image_hw": [16, 16], "blobs_per_grade": 8,
                                            "blob_radius": [3.0, 3.0], "noise_sigma": 0.0}}))
        out = tmp_path / "out"
        rc = main(["gen-data", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: could not place 8 non-touching blobs of radius [3.0, 3.0] in a 16x16 image\n")
        assert not list(out.glob("*.insd")) and not list(out.glob(".*.tmp"))

    @pytest.mark.parametrize("sample_ids, top_k, message", [
        ("0,99999", "3", "--sample-ids: sample id 99999 out of range [0,6)"),
        ("1,x", "3", "--sample-ids: invalid literal for int() with base 10: 'x'"),
        ("0", "4", "top_k must be <= the model's 3 prototypes, got 4"),
    ])
    def test_bad_explain_input_writes_nothing(self, workdir, tmp_path, capsys, sample_ids,
                                               top_k, message):
        rc = main(["explain", "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                   "--data", str(workdir / "data"), "--sample-ids", sample_ids,
                   "--top-k", top_k, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list((tmp_path / "out").glob("explanation_*.json"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "embed"])
    def test_empty_test_split_exits_2(self, workdir, tmp_path, capsys, command):
        test = load_dataset(workdir / "data" / "test.insd")
        save_dataset(replace(test, images=np.zeros((0, 3, 8, 8)), y=np.ones(0),
                             y_categorical=np.ones(0)), tmp_path / "test.insd")
        rc = main([command, "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                   "--data", str(tmp_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "error: no-grad pass over an empty image array\n"

    def test_diverged_training_exits_2(self, tmp_path, capsys):
        cfg = diverging_config(tmp_path)
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        capsys.readouterr()
        rc = main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {DIVERGED}\n"

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_diverged_run_prints_one_line(self, tmp_path, command):
        # a process of its own, outside pytest's capture of warnings, and for
        # ablate with its forked cell workers
        cfg = diverging_config(tmp_path)
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        src = str(Path(protoreg.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "protoreg.cli", command, "--config", str(cfg),
                               "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")],
                              capture_output=True, text=True,
                              env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {DIVERGED}\n")

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_ablate_seeds_below_one(self, tmp_path, capsys, seeds):
        rc = main(["ablate", "--data", str(tmp_path / "nope"), "--seeds", seeds,
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --seeds must be >= 1, got {seeds}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["train.seed", "model.seed"])
    def test_ablate_seed_offset_past_its_range(self, workdir, tmp_path, capsys, monkeypatch,
                                               key):
        section, name = key.split(".")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CFG, section: {**TINY_CFG[section], name: 2**32 - 1}}))
        trained = []
        monkeypatch.setattr("protoreg.cli.train_run", lambda *a: trained.append(a))
        # the second seed of every cell is the config's seed + 1
        rc = main(["ablate", "--config", str(cfg), "--data", str(workdir / "data"),
                   "--seeds", "2", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {key} must be <= 4294967295, got 4294967296\n"
        assert trained == []
        assert not (tmp_path / "out").exists()

    def test_bad_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.bin"
        ckpt.write_bytes(b"garbage")
        rc = main(["eval", "--checkpoint", str(ckpt),
                   "--data", str(tmp_path), "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_truncated_checkpoint(self, workdir, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.bin"
        ckpt.write_bytes((workdir / "run" / "checkpoint.bin").read_bytes()[:10])
        rc = main(["eval", "--checkpoint", str(ckpt),
                   "--data", str(workdir / "data"), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_checkpoint_cut_inside_payload(self, workdir, tmp_path, capsys):
        raw = (workdir / "run" / "checkpoint.bin").read_bytes()
        (header_len,) = struct.unpack("<Q", raw[9:17])
        start = 17 + header_len  # magic, version, header length, header
        ckpt = tmp_path / "ckpt.bin"
        for cut in (start, start + 1, start + 7, start + 8, start + 803,
                    len(raw) - 8, len(raw) - 1):
            ckpt.write_bytes(raw[:cut])
            rc = main(["eval", "--checkpoint", str(ckpt),
                       "--data", str(workdir / "data"), "--out", str(tmp_path / "out")])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {ckpt}: "), err
            assert "the header expects" in err, err


# Frees a 16 MiB array, which raises glibc's default mmap threshold, then
# prints whether a new 5 MiB array lies inside the brk heap.
_HEAP_PROBE = """
import sys
import numpy as np
from protoreg.cli import pin_malloc_thresholds
if sys.argv[1] == "pin":
    assert pin_malloc_thresholds()
big = np.ones(2 << 20)
del big
addr = np.ones(5 << 17).__array_interface__["data"][0]
lo, hi = next([int(x, 16) for x in line.split()[0].split("-")]
              for line in open("/proc/self/maps") if line.rstrip().endswith("[heap]"))
print(lo <= addr < hi)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not Path("/proc/self/maps").exists(),
                    reason="glibc heap layout")
@pytest.mark.parametrize("mode, in_heap", [("default", "True"), ("pin", "False")])
def test_pinned_thresholds_keep_large_arrays_out_of_the_heap(mode, in_heap):
    src = str(Path(protoreg.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _HEAP_PROBE, mode], capture_output=True,
                         text=True, check=True,
                         env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert out.stdout.strip() == in_heap


# Prints whether a small array made on a second thread lies inside the brk heap,
# which only the main arena uses.
_THREAD_PROBE = """
import sys, threading
import numpy as np
from protoreg.cli import pin_malloc_thresholds
if sys.argv[1] == "pin":
    assert pin_malloc_thresholds()
addrs = []
t = threading.Thread(target=lambda: addrs.append(np.ones(1000).__array_interface__["data"][0]))
t.start()
t.join()
lo, hi = next([int(x, 16) for x in line.split()[0].split("-")]
              for line in open("/proc/self/maps") if line.rstrip().endswith("[heap]"))
print(lo <= addrs[0] < hi)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not Path("/proc/self/maps").exists(),
                    reason="glibc heap layout")
@pytest.mark.parametrize("mode, in_heap", [("default", "False"), ("pin", "True")])
def test_pinned_arena_cap_keeps_thread_blocks_in_the_heap(mode, in_heap):
    src = str(Path(protoreg.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _THREAD_PROBE, mode], capture_output=True,
                         text=True, check=True,
                         env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert out.stdout.strip() == in_heap
