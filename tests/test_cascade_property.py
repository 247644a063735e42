"""Differential property test: random cascades against the oracle.

Hypothesis draws small models, held boundary layers, dummy relays, batch
shapes and optimizer settings. Every draw must train, and then predict, bitwise like
`harness.run_baseline` and `harness.baseline_predict`, and every packet a
node or the designer receives must be exactly L bytes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from mixnn import harness, nn, node
from mixnn.crypto import gen_keypair
from mixnn.designer import Designer, ProvisionPlan, TrainingConfig
from mixnn.directory import Directory

L = 32 * 1024


@st.composite
def runs(draw):
    """(chains, config, r dummies, samples) for one small training run."""
    widths = [draw(st.integers(2, 24)),
              *draw(st.lists(st.integers(1, 24), max_size=3)),
              draw(st.integers(2, 5))]
    chains = []
    for in_dim, out_dim in zip(widths, widths[1:]):
        chain = [nn.linear(in_dim, out_dim)]
        activation = draw(st.sampled_from([None, nn.RELU, nn.IDENTITY]))
        if activation:
            chain.append(nn.PrimitiveOp(activation))
        chains.append(chain)
    loss_layers = draw(st.sampled_from([
        "in the last layer",
        [[nn.logsoftmax(), nn.nllloss()]],
        [[nn.logsoftmax()], [nn.nllloss()]],
    ]))
    if loss_layers == "in the last layer":
        chains[-1] += [nn.logsoftmax(), nn.nllloss()]
    else:
        chains += loss_layers
    hold_first, hold_last = draw(st.booleans()), draw(st.booleans())
    remote = len(chains) - hold_first - hold_last
    assume(remote >= 1)  # the designer may not hold the whole model
    r = draw(st.integers(0, 3 if remote >= 2 else 0))  # dummies sit between actual layers
    config = TrainingConfig(
        epochs=draw(st.integers(1, 2)), batch_size=draw(st.integers(1, 9)),
        learning_rate=draw(st.floats(0.001, 0.2)), momentum=draw(st.floats(0.0, 0.99)),
        seed=draw(st.integers(0, 2**32 - 1)), time_bound_T=5.0,
        hold_first_layer=hold_first, hold_last_layer=hold_last)
    return chains, config, r, draw(st.integers(2, 30))


@pytest.fixture(scope="module")
def packet_lengths():
    """Lengths of every packet a node handles or the designer receives."""
    seen = []
    handle, recv = node.handle_packet, harness.SimChannel.recv

    def checked_handle(state, packet, *args, **kwargs):
        seen.append(len(packet))
        return handle(state, packet, *args, **kwargs)

    def checked_recv(channel, timeout):
        data = recv(channel, timeout)
        seen.append(len(data))
        return data

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(node, "handle_packet", checked_handle)
        mp.setattr(harness.SimChannel, "recv", checked_recv)
        yield seen


@settings(max_examples=50, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=runs())
def test_random_cascade_is_bitwise_the_oracle(packet_lengths, run):
    chains, config, r, samples = run
    model = nn.make_layer_specs(chains, config.seed)
    rng = np.random.default_rng(config.seed)
    x = rng.standard_normal((samples, model[0].chain[0].in_dim), dtype=np.float32)
    classes = [op for chain in chains for op in chain if op.kind == nn.LINEAR][-1].out_dim
    y = rng.integers(0, classes, size=samples)

    base_params, base_metrics = harness.run_baseline(model, x, y, config)
    base_logp = harness.baseline_predict(model, base_params, x, batch_size=config.batch_size)

    remote = len(model) - config.hold_first_layer - config.hold_last_layer
    net, directory = harness.SimNet(), Directory()
    pool = harness.spawn_pool(net, remote + r, directory, packet_len=L)
    designer = Designer(net.designer_channel(), gen_keypair())
    cascade = designer.provision(
        directory.list(), model,
        ProvisionPlan(n=remote + r, p=remote, r=r, selection_seed=config.seed),
        config=config, packet_len=L)
    packet_lengths.clear()
    designer.send_designer_loop(cascade)
    designer.initialize_model(cascade, config)
    metrics = designer.train(cascade, x, y, config)
    logp = designer.predict(cascade, x, batch_size=config.batch_size, config=config)

    assert np.array(metrics.losses).tobytes() == np.array(base_metrics.losses).tobytes()
    dist_params = harness.collect_cascade_params(cascade, pool)
    assert len(dist_params) == len(base_params)
    for dist, base in zip(dist_params, base_params):
        assert [(w.tobytes(), b.tobytes()) for w, b in filter(None, dist)] == \
            [(w.tobytes(), b.tobytes()) for w, b in filter(None, base)]
    assert logp.tobytes() == base_logp.tobytes()
    assert packet_lengths and set(packet_lengths) == {L}
