"""``cpus.Child``, which runs each validation of ``trainer.train`` on a
forked snapshot, and ``cpus.one_blas_thread``, which makes results
independent of the BLAS thread count."""

import gc
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from edgedisp import cpus, trainer
from edgedisp import data as ddata
from edgedisp.network import NetworkConfig, init_params

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TINY_NET = NetworkConfig(base_channels=4, d_max=8, groups=2, k_top=2, dilation_rates=(1, 2))

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


class Refused(ValueError):
    """An error the caller must see by its own type."""


def refuse(*_args):
    raise Refused("refused in the child")


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forking(monkeypatch):
    """Fork whatever the number of CPUs."""
    monkeypatch.setattr(cpus, "_spare_cpu", lambda: True)


class TestChild:
    def test_result_comes_from_a_child(self, forking):
        child = cpus.Child(lambda: (os.getpid(), np.arange(3.0)))
        pid, values = child.join()
        assert child.forked and pid != os.getpid()
        np.testing.assert_array_equal(values, [0.0, 1.0, 2.0])
        assert_no_child()

    def test_exception_reaches_the_caller_by_type(self, forking):
        child = cpus.Child(refuse)
        with pytest.raises(Refused, match="refused in the child"):
            child.join()
        assert_no_child()

    def test_child_ending_without_a_report(self, forking):
        child = cpus.Child(lambda: os._exit(3))
        with pytest.raises(ChildProcessError, match="wait status 768 and no readable report"):
            child.join()
        assert_no_child()

    def test_close_kills_a_child_not_joined(self, forking):
        t0 = time.monotonic()
        cpus.Child(lambda: time.sleep(60)).close()
        assert time.monotonic() - t0 < 30
        assert_no_child()

    def test_close_after_join_does_nothing(self, forking):
        child = cpus.Child(lambda: 7)
        assert child.join() == 7
        child.close()
        assert_no_child()

    def test_pipe_closed_on_every_path(self, forking):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cpus.Child(lambda: 1).join()
            with pytest.raises(Refused):
                cpus.Child(refuse).join()
            cpus.Child(lambda: time.sleep(60)).close()
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert_no_child()

    def test_inline_without_a_spare_cpu(self, monkeypatch):
        monkeypatch.setattr(cpus, "_spare_cpu", lambda: False)
        ran = []
        child = cpus.Child(lambda: ran.append(os.getpid()) or "done")
        assert not child.forked and ran == [os.getpid()]
        assert child.join() == "done"
        with pytest.raises(Refused):
            cpus.Child(refuse)


class TestForkedValidation:
    @staticmethod
    def _cfg(tmp_path, out, eval_interval, steps=6):
        for sub, count, seed0 in (("train", 6, 0), ("val", 3, 100)):
            if not (tmp_path / sub).is_dir():
                for i in range(count):
                    ddata.save_sample(str(tmp_path / sub), i, ddata.synth_stereogram(
                        seed0 + i, {"H": 32, "W": 32, "D_max": 8, "n_objects": 2}))
        return trainer.TrainConfig(
            seed=0, batch_size=2, steps=steps, lr_schedule=((0, 1e-3),), network=TINY_NET,
            data_dir=str(tmp_path / "train"), val_dir=str(tmp_path / "val"),
            eval_interval=eval_interval, out_dir=str(tmp_path / out))

    @pytest.mark.parametrize("eval_interval", [1, 3])
    def test_same_files_forked_and_inline(self, tmp_path, monkeypatch, eval_interval):
        runs = []
        for spare in (True, False):
            monkeypatch.setattr(cpus, "_spare_cpu", lambda: spare)
            cfg = self._cfg(tmp_path, f"run{spare}", eval_interval)
            result = trainer.train(cfg)
            runs.append([Path(cfg.out_dir, f).read_bytes()
                         for f in ("best.ckpt", "last.ckpt", "log.jsonl")] + [result["val"]])
            assert_no_child()
        assert runs[0] == runs[1]
        log = [json.loads(line) for line in runs[0][2].decode().splitlines()]
        assert [e["step"] for e in log if "val" in e] == list(range(eval_interval, 7, eval_interval))

    @staticmethod
    def _slow_children(monkeypatch, seconds):
        """Each forked validation sleeps ``seconds`` before it starts."""
        parent, validate = os.getpid(), trainer._validate

        def slow(*args):
            if os.getpid() != parent:
                time.sleep(seconds)
            return validate(*args)
        monkeypatch.setattr(trainer, "_validate", slow)

    @pytest.mark.parametrize("spare", [True, False])
    def test_non_finite_loss_while_a_validation_runs(self, tmp_path, monkeypatch, spare):
        """An error in the parent joins the running validation: its val line,
        the steps held behind it and its best.ckpt are written, as the serial
        loop had written them, forked or inline."""
        monkeypatch.setattr(cpus, "_spare_cpu", lambda: spare)
        cfg = self._cfg(tmp_path, "run", eval_interval=3)
        best = Path(cfg.out_dir, "best.ckpt")
        compute, calls, seen = trainer.compute_losses, [], []

        def nan_at_step_5(*args):
            parts = compute(*args)
            calls.append(None)
            if len(calls) == 5:
                seen.append(best.exists())
                parts["total"] = parts["total"] * np.nan
            return parts

        self._slow_children(monkeypatch, 2)
        monkeypatch.setattr(trainer, "compute_losses", nan_at_step_5)
        with pytest.raises(RuntimeError, match="non-finite loss at step 5"):
            trainer.train(cfg)
        assert_no_child()
        # forked, the validation of step 3 was still running at step 5
        assert seen == [not spare]
        log = [json.loads(line) for line in Path(cfg.out_dir, "log.jsonl").read_text().splitlines()]
        assert [(e["step"], "val" in e) for e in log] == [
            (1, False), (2, False), (3, False), (3, True), (4, False)]
        _params, state, _net = trainer.load_checkpoint(str(best))
        assert state.step == 3
        assert not list(Path(cfg.out_dir).glob("*.part"))

    def test_interrupt_kills_a_running_validation(self, tmp_path, monkeypatch, forking):
        compute, calls = trainer.compute_losses, []

        def interrupt_at_step_5(*args):
            calls.append(None)
            if len(calls) == 5:
                raise KeyboardInterrupt
            return compute(*args)

        self._slow_children(monkeypatch, 60)
        monkeypatch.setattr(trainer, "compute_losses", interrupt_at_step_5)
        cfg = self._cfg(tmp_path, "run", eval_interval=3)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            trainer.train(cfg)
        assert time.monotonic() - t0 < 30
        assert_no_child()
        # the killed validation wrote nothing, and step 4's line was held behind it
        log = [json.loads(line) for line in Path(cfg.out_dir, "log.jsonl").read_text().splitlines()]
        assert [e["step"] for e in log] == [1, 2, 3] and all("val" not in e for e in log)
        assert not Path(cfg.out_dir, "best.ckpt").exists()

    def test_kill_while_saving_keeps_the_previous_checkpoint(self, tmp_path, forking):
        path = str(tmp_path / "best.ckpt")
        trainer.save_checkpoint(init_params(TINY_NET, seed=0), None, path, TINY_NET)
        before = Path(path).read_bytes()

        def save_and_die_halfway():
            class Dying:
                """A file that is killed, with its process, halfway through
                its first write."""

                def __init__(self, f):
                    self.f = f

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self.f.close()

                def write(self, blob):
                    self.f.write(blob[:len(blob) // 2])
                    self.f.flush()
                    os.kill(os.getpid(), signal.SIGKILL)

            trainer.open = lambda *args: Dying(open(*args))
            trainer.save_checkpoint(init_params(TINY_NET, seed=1), None, path, TINY_NET)

        with pytest.raises(ChildProcessError, match="wait status 9 "):
            cpus.Child(save_and_die_halfway).join()
        assert_no_child()
        assert not hasattr(trainer, "open")
        assert Path(path).read_bytes() == before
        trainer.load_checkpoint(path)

    def test_validation_error_reaches_the_caller(self, tmp_path, monkeypatch, forking):
        monkeypatch.setattr(trainer, "evaluate_params", refuse)
        with pytest.raises(Refused, match="refused in the child"):
            trainer.train(self._cfg(tmp_path, "run", eval_interval=3))
        assert_no_child()


class TestOneBlasThread:
    def test_count_is_one_inside_and_the_callers_after(self):
        blas = cpus._openblas()
        if blas is None:
            pytest.skip("numpy's BLAS has no thread-count functions")
        get, put = blas
        before = get()
        try:
            put(2)
            with cpus.one_blas_thread():
                assert get() == 1
                with cpus.one_blas_thread():
                    assert get() == 1
                assert get() == 1
            assert get() == 2
            seen = []
            forward = trainer.network.forward

            def spy(*args):
                seen.append(get())
                return forward(*args)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(trainer.network, "forward", spy)
                sample = ddata.synth_stereogram(0, {"H": 16, "W": 32, "D_max": 8,
                                                    "n_objects": 2})
                trainer.evaluate_params(init_params(TINY_NET, seed=0), TINY_NET, [sample])
            assert seen == [1] and get() == 2
        finally:
            put(before)


# One 128x256 predict, and the gradients that one batch-4 64x64 training
# step hands to Adam, saved to argv[2]; argv[1] is a scratch directory.
BLAS_SCRIPT = r"""
import sys
import numpy as np
from edgedisp import data, trainer
from edgedisp.network import NetworkConfig, init_params

work, out = sys.argv[1], sys.argv[2]
arrays = {}
net = NetworkConfig(d_max=32)
sample = data.synth_stereogram(7, {"H": 128, "W": 256, "D_max": 32, "n_objects": 2})
arrays["predict"] = trainer.predict(init_params(net, seed=0), net, sample)
adam = trainer.adam_step

def capture(params, state):
    arrays.update({"grad." + n: t.grad.copy() for n, t in params.items()
                   if t.grad is not None})
    adam(params, state)

trainer.adam_step = capture
for i in range(4):
    data.save_sample(work + "/train", i, data.synth_stereogram(
        i, {"H": 64, "W": 64, "D_max": 16, "n_objects": 2}))
trainer.train(trainer.TrainConfig(steps=1, batch_size=4, data_dir=work + "/train",
                                  out_dir=work + "/run"))
np.savez(out, **arrays)
"""


def test_same_bits_on_one_and_two_blas_threads(tmp_path):
    saved = []
    for threads in ("1", "2"):
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        out = tmp_path / f"threads{threads}.npz"
        subprocess.run([sys.executable, "-c", BLAS_SCRIPT, str(tmp_path / threads), str(out)],
                       env=env, check=True, timeout=300, capture_output=True)
        saved.append(np.load(out))
    one, two = saved
    assert sorted(one.files) == sorted(two.files) and len(one.files) > 100
    assert [n for n in one.files if not np.array_equal(one[n], two[n])] == []
