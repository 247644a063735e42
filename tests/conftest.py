import os
from pathlib import Path

import numpy as np
import pytest

from mixnn import nn
from mixnn.crypto import gen_keypair
from mixnn.designer import Designer, ProvisionPlan, TrainingConfig
from mixnn.directory import Directory
from mixnn.harness import SimNet, spawn_pool, synthetic_two_gaussians

# small model for fast protocol tests: the MNIST MLP shape with shrunk
# hidden widths
SMALL_CHAINS = [
    [nn.linear(784, 32), nn.relu()],
    [nn.linear(32, 16), nn.relu()],
    [nn.linear(16, 10)],
    [nn.logsoftmax()],
    [nn.nllloss()],
]

SMALL_L = 262144

# tests that start `python -m mixnn.cli` need this checkout's src/ too;
# pytest's own `pythonpath` setting reaches only this process
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def keypair():
    return gen_keypair()


@pytest.fixture(scope="session")
def keypair2():
    return gen_keypair()


class SimWorld:
    """A simulated pool + designer, ready to provision cascades."""

    def __init__(self, m=8, seed=1, latency=0.001, proc_delay=0.0005,
                 packet_len=SMALL_L):
        self.net = SimNet(latency=latency, proc_delay=proc_delay, seed=seed)
        self.directory = Directory()
        self.packet_len = packet_len
        self.pool = spawn_pool(self.net, m, self.directory, packet_len=packet_len)
        self.designer = Designer(self.net.designer_channel(), gen_keypair())

    def cascade(self, model, plan, config):
        return self.designer.provision(self.directory.list(), model, plan,
                                       config=config, packet_len=self.packet_len)

    def train_ready(self, model, plan, config):
        cascade = self.cascade(model, plan, config)
        self.designer.send_designer_loop(cascade)
        self.designer.initialize_model(cascade, config)
        return cascade


@pytest.fixture
def sim_world():
    return SimWorld()


def small_config(**kw):
    defaults = dict(epochs=1, batch_size=32, seed=7, time_bound_T=5.0)
    defaults.update(kw)
    return TrainingConfig(**defaults)


def small_model(seed=7):
    return nn.make_layer_specs(SMALL_CHAINS, seed)


def small_dataset(n=96, seed=3):
    return synthetic_two_gaussians(n=n, dim=784, seed=seed)


def plan_np(n, p, r=0, seed=11):
    return ProvisionPlan(n=n, p=p, r=r, selection_seed=seed)


def params_equal(a, b):
    """Bitwise equality of two per-layer parameter lists."""
    if len(a) != len(b):
        return False
    for pa, pb in zip(a, b):
        for xa, xb in zip(pa, pb):
            if xa is None or xb is None:
                if xa is not xb:
                    return False
                continue
            if not (np.array_equal(xa[0], xb[0]) and np.array_equal(xa[1], xb[1])):
                return False
    return True
