"""The buffer-arena kernels (repro.nn.arena) — the only kernel path.

Three families of guarantees:

* **Byte-exact layers** — dense, pooling, activations and batch norm
  running on pinned scratch match their plain NumPy expressions bit for
  bit (the scratch versions decompose the very same expression trees
  with ``out=``); the optimizers step deterministically.
* **Conv gradients** — the channel-major im2col conv passes gradcheck
  in both dtypes.
* **Steady state** — after the first epoch the arena stops growing, and
  repeated epochs allocate no new large arrays.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.nas.decoder import DecoderConfig, decode_genome
from repro.nas.genome import random_genome
from repro.nn.dtype import resolve_dtype
from repro.nn.layers import (
    AvgPool2D,
    BatchNorm1D,
    BatchNorm2D,
    Conv2D,
    Dense,
    LeakyReLU,
    MaxPool2D,
    ReLU,
)
from repro.nn.layers.conv import col2im, im2col
from repro.nn.optimizers import SGD, Adam
from repro.nn.trainer import Trainer
from repro.utils.io import atomic_write_json, read_json
from tests.test_nn_gradcheck import DTYPE_GRADCHECK, assert_gradients_match


def _roundtrip(layer, x, g):
    out = layer.forward(x, training=True).copy()
    grad_in = layer.backward(g).copy()
    return out, grad_in


# -- conv: gradcheck with the arena bound ---------------------------------------


class TestConvArenaGradcheck:
    @pytest.mark.parametrize("label", ["float32", "float64"])
    @pytest.mark.parametrize(
        "kernel_size,stride,padding",
        [(3, 1, "same"), (3, 1, 0), (3, 2, 1), (2, 1, "same"), (1, 1, 0), (1, 2, 0)],
    )
    def test_conv_arena(self, label, kernel_size, stride, padding):
        dtype = resolve_dtype(label)
        rng = np.random.default_rng(5)
        layer = Conv2D(
            3,
            4,
            kernel_size=kernel_size,
            stride=stride,
            padding=padding,
            rng=rng,
            dtype=dtype,
        )
        x = rng.normal(size=(2, 3, 6, 6)).astype(dtype)
        assert_gradients_match(layer, x, rng, **DTYPE_GRADCHECK[label])


# -- byte-exact layer equivalence -----------------------------------------------


def _window_view(x, k):
    return sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::k, ::k]


class TestByteExactLayers:
    @pytest.mark.parametrize("label", ["float32", "float64"])
    def test_dense(self, label):
        dtype = resolve_dtype(label)
        layer = Dense(12, 7, rng=np.random.default_rng(11), dtype=dtype)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 12)).astype(dtype)
        g = rng.normal(size=(5, 7)).astype(dtype)
        weight, bias = layer.params["weight"].value, layer.params["bias"].value
        out, grad_in = _roundtrip(layer, x, g)
        np.testing.assert_array_equal(out, x @ weight + bias)
        np.testing.assert_array_equal(grad_in, g @ weight.T)
        np.testing.assert_array_equal(layer.params["weight"].grad, x.T @ g)
        np.testing.assert_array_equal(layer.params["bias"].grad, g.sum(axis=0))

    @pytest.mark.parametrize("pool_cls", [MaxPool2D, AvgPool2D])
    def test_pooling(self, pool_cls):
        layer = pool_cls(2)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        windows = _window_view(x, 2)
        n, c, oh, ow = windows.shape[:4]
        g = rng.normal(size=(n, c, oh, ow)).astype(np.float32)
        out, grad_in = _roundtrip(layer, x, g)
        expected_grad = np.zeros_like(x)
        if pool_cls is MaxPool2D:
            flat = windows.reshape(n, c, oh, ow, 4)
            expected_out = flat.max(axis=-1)
            argmax = flat.argmax(axis=-1)
            for i in range(2):
                for j in range(2):
                    expected_grad[:, :, i::2, j::2] = np.where(
                        argmax == 2 * i + j, g, 0.0
                    )
        else:
            expected_out = windows.mean(axis=(-2, -1))
            for i in range(2):
                for j in range(2):
                    expected_grad[:, :, i::2, j::2] += g / 4
        np.testing.assert_array_equal(out, expected_out)
        np.testing.assert_array_equal(grad_in, expected_grad)

    @pytest.mark.parametrize("act_cls", [ReLU, LeakyReLU])
    def test_activations(self, act_cls):
        layer = act_cls()
        rng = np.random.default_rng(4)
        # include exact zeros and negative zeros: the scratch ReLU must
        # reproduce np.where byte-for-byte even at sign-of-zero level
        x = rng.normal(size=(6, 10)).astype(np.float32)
        x.ravel()[:3] = [0.0, -0.0, 1e-38]
        g = rng.normal(size=x.shape).astype(np.float32)
        out, grad_in = _roundtrip(layer, x, g)
        mask = x > 0
        if act_cls is ReLU:
            expected_out, expected_grad = np.where(mask, x, 0.0), g * mask
        else:
            alpha = layer.alpha
            expected_out = np.where(mask, x, alpha * x)
            expected_grad = np.where(mask, g, g * alpha)
        np.testing.assert_array_equal(out, expected_out.astype(np.float32))
        np.testing.assert_array_equal(grad_in, expected_grad)

    @pytest.mark.parametrize(
        "bn_cls,shape", [(BatchNorm2D, (4, 5, 3, 3)), (BatchNorm1D, (6, 5))]
    )
    def test_batchnorm_training_eval_and_running_stats(self, bn_cls, shape):
        layer = bn_cls(5, dtype=np.float32)
        axes = layer._axes
        bshape = [1] * len(shape)
        bshape[1] = 5
        gamma = layer.params["gamma"].value.reshape(bshape)
        beta = layer.params["beta"].value.reshape(bshape)
        running_mean, running_var = layer.running_mean, layer.running_var
        rng = np.random.default_rng(6)
        for _ in range(3):
            x = rng.normal(size=shape).astype(np.float32)
            g = rng.normal(size=shape).astype(np.float32)
            out, grad_in = _roundtrip(layer, x, g)
            mean, var = x.mean(axis=axes), x.var(axis=axes)
            running_mean = 0.9 * running_mean + (1 - 0.9) * mean
            running_var = 0.9 * running_var + (1 - 0.9) * var
            inv = (1.0 / np.sqrt(var + layer.eps)).reshape(bshape)
            x_hat = (x - mean.reshape(bshape)) * inv
            np.testing.assert_array_equal(out, gamma * x_hat + beta)
            m = g.size // 5
            gg = g * gamma
            sum_g = gg.sum(axis=axes).reshape(bshape)
            sum_gx = (gg * x_hat).sum(axis=axes).reshape(bshape)
            np.testing.assert_array_equal(
                grad_in, (inv / m) * (m * gg - sum_g - x_hat * sum_gx)
            )
        np.testing.assert_array_equal(layer.running_mean, running_mean)
        np.testing.assert_array_equal(layer.running_var, running_var)
        x = rng.normal(size=shape).astype(np.float32)
        inv = (1.0 / np.sqrt(running_var + layer.eps)).reshape(bshape)
        x_hat = (x - running_mean.reshape(bshape)) * inv
        np.testing.assert_array_equal(
            layer.forward(x, training=False), gamma * x_hat + beta
        )


# -- byte-exact in-place optimizers ---------------------------------------------


@pytest.mark.parametrize("label", ["float32", "float64"])
@pytest.mark.parametrize(
    "opt_factory",
    [
        lambda net: SGD(net, 0.05),
        lambda net: SGD(net, 0.05, momentum=0.9, weight_decay=1e-4),
        lambda net: Adam(net, 1e-3),
        lambda net: Adam(net, 1e-3, weight_decay=1e-4),
    ],
)
def test_optimizer_steps_bitwise_equal(label, opt_factory):
    dtype = resolve_dtype(label)

    def build():
        rng = np.random.default_rng(9)
        genome = random_genome(rng, n_phases=1, nodes_per_phase=2, density=1.0)
        return decode_genome(
            genome,
            DecoderConfig(input_shape=(1, 8, 8), n_classes=2, channels=(8,), dtype=dtype),
            rng=rng,
        )

    net_a, net_b = build(), build()
    opt_a, opt_b = opt_factory(net_a), opt_factory(net_b)
    rng = np.random.default_rng(10)
    for _ in range(5):
        for (_, pa), (_, pb) in zip(net_a.parameters(), net_b.parameters()):
            g = rng.normal(size=pa.shape).astype(dtype)
            pa.grad[...] = g
            pb.grad[...] = g
        opt_a.step()
        opt_b.step()
    for (name, pa), (_, pb) in zip(net_a.parameters(), net_b.parameters()):
        np.testing.assert_array_equal(pa.value, pb.value, err_msg=name)


def _build_network(dtype):
    rng = np.random.default_rng(13)
    genome = random_genome(rng, n_phases=2, nodes_per_phase=2, density=0.7)
    return decode_genome(
        genome,
        DecoderConfig(input_shape=(1, 12, 12), n_classes=3, channels=(8, 16), dtype=dtype),
        rng=rng,
    )


# -- steady state ----------------------------------------------------------------


def test_arena_reaches_steady_state_and_tracks_peak_bytes():
    net = _build_network(np.float32)
    rng = np.random.default_rng(17)
    n = 20  # ragged last batch: 20 = 2*8 + 4 exercises per-shape keying
    x = rng.normal(size=(n, 1, 12, 12)).astype(np.float32)
    y = (rng.random(n) * 3).astype(np.int64)
    trainer = Trainer(
        net,
        x,
        y,
        x[:8],
        y[:8],
        optimizer=SGD(net, 0.01),
        batch_size=8,
        rng=np.random.default_rng(18),
    )
    trainer.train()
    trainer.validate()
    arena = net.arena
    assert arena.nbytes > 0 and arena.n_buffers > 0
    settled = (arena.n_buffers, arena.nbytes)
    tracemalloc.start()
    for _ in range(3):
        trainer.train()
        trainer.validate()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert (arena.n_buffers, arena.nbytes) == settled
    # three epochs of training + validation must not allocate new
    # megabyte-scale scratch — the pinned buffers absorb all of it
    assert peak < 512 * 1024, f"steady-state epochs allocated {peak} bytes"


# -- col2im out= -----------------------------------------------------------------


def test_col2im_out_matches_allocating_call():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(2, 3, 7, 7))
    cols = im2col(x, 3, 3, 2)
    gcols = rng.normal(size=cols.shape)
    expected = col2im(gcols, x.shape, 3, 3, 2)
    out = np.full(x.shape, np.nan)
    result = col2im(gcols, x.shape, 3, 3, 2, out=out)
    assert result is out
    np.testing.assert_array_equal(result, expected)
    with pytest.raises(ValueError, match="expected"):
        col2im(gcols, x.shape, 3, 3, 2, out=np.empty((1, 1)))


# -- MaxPool vectorized backward vs a loop reference ------------------------------


@pytest.mark.parametrize("pool,stride", [(2, 2), (3, 3), (3, 2), (2, 1)])
def test_maxpool_backward_matches_loop_reference(pool, stride):
    rng = np.random.default_rng(23)
    layer = MaxPool2D(pool, stride=stride)
    x = rng.normal(size=(2, 3, 9, 9)).astype(np.float64)
    out = layer.forward(x, training=True)
    g = rng.normal(size=out.shape)
    grad = layer.backward(g)
    # reference: explicit per-window scatter-add to the argmax cell
    expected = np.zeros_like(x)
    n, c, oh, ow = out.shape
    for ni in range(n):
        for ci in range(c):
            for yi in range(oh):
                for xi in range(ow):
                    win = x[
                        ni,
                        ci,
                        yi * stride : yi * stride + pool,
                        xi * stride : xi * stride + pool,
                    ]
                    dy, dx = np.unravel_index(np.argmax(win), win.shape)
                    expected[ni, ci, yi * stride + dy, xi * stride + dx] += g[
                        ni, ci, yi, xi
                    ]
    np.testing.assert_array_equal(grad, expected)


# -- workflow wiring: lineage fields, stored configs -------------------------------


def test_individual_arena_fields_reach_model_record():
    from repro.lineage.records import ModelRecord
    from repro.lineage.tracker import LineageTracker
    from repro.nas.population import Individual

    rng = np.random.default_rng(25)
    genome = random_genome(rng, n_phases=1, nodes_per_phase=2, density=1.0)
    individual = Individual(genome=genome, model_id="m1", generation=0)
    individual.arena_enabled = True
    individual.arena_peak_bytes = 12345
    assert individual.to_dict()["arena_enabled"] is True
    assert individual.to_dict()["arena_peak_bytes"] == 12345
    record = ModelRecord(model_id="m1", generation=0, genome=genome.to_dict())
    assert record.arena_enabled is False and record.arena_peak_bytes == 0

    tracker = LineageTracker()
    tracker.observe_individual(individual)
    stored = tracker.records["m1"]
    assert stored.arena_enabled is True
    assert stored.arena_peak_bytes == 12345


def test_stored_arena_key_is_ignored_on_replay(tmp_path):
    # run documents written before the single kernel path carry an
    # ``arena`` key; float64 replay ignores it and still verifies
    from repro.core.engine import EngineConfig
    from repro.lineage import DataCommons, verify_run
    from repro.nas.search import NSGANetConfig
    from repro.workflow import WorkflowConfig, run_workflow
    from repro.xfel import DatasetConfig

    config = WorkflowConfig(
        nas=NSGANetConfig(
            population_size=3, offspring_per_generation=3, generations=1, max_epochs=3
        ),
        engine=EngineConfig(e_pred=3, tolerance=1.0),
        dataset=DatasetConfig(images_per_class=20, image_size=16),
        mode="real",
        n_gpus=(1,),
        seed=26,
        dtype="float64",
        rng_keying="model",
        eval_cache=False,
    )
    result = run_workflow(config, commons_path=tmp_path)
    run_path = tmp_path / "runs" / result.run_id / "run.json"
    payload = read_json(run_path)
    assert "arena" not in payload["workflow_config"]
    payload["workflow_config"]["arena"] = False
    atomic_write_json(run_path, payload)
    report = verify_run(DataCommons(tmp_path), result.run_id)
    assert report.matches, report.summary()
    assert report.n_models == len(result.search.archive)
