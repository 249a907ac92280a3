"""Every public-API argument check raises its own error with its own message.

One row per check: (id, call, error type, message fragment). A call takes
a temporary directory for the checks that read or write files. Each call is
built to fail that one check and no earlier one.
"""

import numpy as np
import pytest

from sflsim import buffer, data, kernel, models, netsim, quantize, runtime


def _rng():
    return np.random.default_rng(0)


def _dense():
    return kernel.Dense(3, 2, rng=_rng())


def _probe_of_another_shape(tmp):
    buf = buffer.ReplayBuffer(1)
    buf.store(quantize.encode(np.ones((2, 3)), 0, 0, 0))
    return buffer.buffer_distance_proxy(buf, 0, 0, np.ones((3, 3)))


def _checkpoint_with_trailing_bytes(tmp):
    path = tmp / "weights.sfl"
    kernel.save_weights(path, [_dense()])
    path.write_bytes(path.read_bytes() + b"\0")
    return kernel.load_weights(path, [_dense()])


def _foreign_metrics_log(tmp):
    path = tmp / "metrics.csv"
    path.write_text("a,b\n1,2\n")
    return runtime.read_metrics_csv(path)


def _idx(images, labels):
    return lambda tmp: data.write_idx(tmp / "images.idx", tmp / "labels.idx", images, labels)


def _spec(layer_string, input_shape):
    return models.ModelSpec("probe", layer_string, input_shape, 2)


TINY = models.ZOO["tiny_vgg"]
SIZES = dict(samples_per_device=4, devices=1, batch_size=2)
WIFI = netsim.PROFILES["wifi"]
UNITS = netsim.ComputeReport(1.0, 1.0)

CASES = [
    ("buffer.switch_is_on.integers", lambda tmp: buffer.switch_is_on(1.5, 2),
     buffer.BufferError, "round index and period must be integers"),
    ("buffer.ReplayBuffer.period", lambda tmp: buffer.ReplayBuffer(0),
     buffer.BufferError, "period must be >= 1, got 0"),
    ("buffer.ReplayBuffer.integer_period", lambda tmp: buffer.ReplayBuffer(1.5),
     buffer.BufferError, "round index and period must be integers"),
    ("buffer.buffer_distance_proxy.shape", _probe_of_another_shape,
     buffer.BufferError, "probe shape (3, 3) != cached shape (2, 3)"),
    ("data.write_idx.images", _idx(np.zeros((2, 3, 4, 4)), np.zeros(2, dtype=int)),
     data.DataError, "write_idx needs (n, 1, h, w) images, got (2, 3, 4, 4)"),
    ("data.write_idx.count", _idx(np.zeros((2, 1, 4, 4)), np.zeros(3, dtype=int)),
     data.DataError, "image/label count mismatch"),
    ("data.write_idx.ubyte", _idx(np.zeros((2, 1, 4, 4)), np.array([0, 256])),
     data.DataError, "labels must fit in a ubyte"),
    ("kernel.Dense.forward", lambda tmp: _dense().forward(np.zeros((2, 4))),
     kernel.KernelError, "dense expects (batch, 3), got (2, 4)"),
    ("kernel.Conv3x3.forward",
     lambda tmp: kernel.Conv3x3(2, 4, rng=_rng()).forward(np.zeros((1, 3, 4, 4))),
     kernel.KernelError, "conv3x3 expects (batch, 2, h, w), got (1, 3, 4, 4)"),
    ("kernel.Conv1x1.forward",
     lambda tmp: kernel.Conv1x1(2, 4, rng=_rng()).forward(np.zeros((1, 3, 4, 4))),
     kernel.KernelError, "conv1x1 expects (batch, 2, h, w), got (1, 3, 4, 4)"),
    ("kernel.softmax_cross_entropy.logits",
     lambda tmp: kernel.softmax_cross_entropy(np.zeros(3), [0]),
     kernel.KernelError, "logits must be 2-d, got (3,)"),
    ("kernel.softmax_cross_entropy.labels",
     lambda tmp: kernel.softmax_cross_entropy(np.zeros((2, 3)), [0]),
     kernel.KernelError, "labels must be one integer per row"),
    ("kernel.sgd_step.length",
     lambda tmp: kernel.sgd_step([_dense()], kernel.Gradients([], None), 0.1),
     kernel.KernelError, "gradient list does not match layer stack"),
    ("kernel.sgd_step.keys",
     lambda tmp: kernel.sgd_step([_dense()], kernel.Gradients([{"w": np.zeros((3, 2))}], None),
                                 0.1),
     kernel.KernelError, "gradient keys {'w'} != params"),
    ("kernel.load_param_vector.long",
     lambda tmp: kernel.load_param_vector([_dense()], np.zeros(9)),
     kernel.KernelError, "vector has 9 entries, stack holds 8"),
    ("kernel.load_weights.trailing", _checkpoint_with_trailing_bytes,
     kernel.KernelError, "trailing bytes after checkpoint payload"),
    ("models.expand.maxpool", lambda tmp: models.expand(_spec("MP|FC", (1, 3, 3))),
     models.ModelError, "maxpool needs even spatial input, got (1, 3, 3)"),
    ("models.expand.conv", lambda tmp: models.expand(_spec("FC4|C8", (1, 4, 4))),
     models.ModelError, "conv needs spatial input, got (4,)"),
    ("models.expand.resblock", lambda tmp: models.expand(_spec("RB8|FC", (1, 3, 3))),
     models.ModelError, "residual block needs even spatial input, got (1, 3, 3)"),
    ("models.analyze.op_index", lambda tmp: models.analyze(TINY, op_index=0),
     models.ModelError, "op_index 0 out of range"),
    ("netsim.comm_bytes_per_round.method",
     lambda tmp: netsim.comm_bytes_per_round("warp", TINY, **SIZES),
     netsim.NetsimError, "unknown method 'warp'"),
    ("netsim.cost_ratio.zero",
     lambda tmp: netsim.cost_ratio("split", "replay_buffer", TINY, **SIZES),
     netsim.NetsimError, "replay_buffer moves zero bytes; ratio undefined"),
    ("netsim.computation_units.method",
     lambda tmp: netsim.computation_units("warp", TINY, samples_per_device=4),
     netsim.NetsimError, "unknown method 'warp'"),
    ("netsim.round_latency.devices", lambda tmp: netsim.round_latency({}, UNITS, WIFI, 1.0, 1.0),
     netsim.NetsimError, "latency needs at least one device's traffic"),
    ("netsim.round_latency.speeds",
     lambda tmp: netsim.round_latency({0: (1, 1)}, UNITS, WIFI, 0.0, 1.0),
     netsim.NetsimError, "compute speeds must be positive"),
    ("quantize.encode.labels",
     lambda tmp: quantize.encode(np.ones((2, 2)), 0, 0, 0, labels=[0, 70000]),
     quantize.QuantizeError, "labels must fit in uint16"),
    ("runtime.fedavg.empty", lambda tmp: runtime.fedavg([], []),
     runtime.TrainingError, "fedavg needs at least one parameter vector"),
    ("runtime.fedavg.counts", lambda tmp: runtime.fedavg([np.zeros(2)], [1, 2]),
     runtime.TrainingError, "one sample count per parameter vector required"),
    ("runtime.fedavg.negative", lambda tmp: runtime.fedavg([np.zeros(2)], [-1]),
     runtime.TrainingError, "sample counts cannot be negative"),
    ("runtime.read_metrics_csv.foreign", _foreign_metrics_log,
     runtime.TrainingError, "is not a metrics log"),
]


@pytest.mark.parametrize("call,error,fragment", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_check_raises_its_error(tmp_path, call, error, fragment):
    with pytest.raises(error) as excinfo:
        call(tmp_path)
    assert fragment in str(excinfo.value)
