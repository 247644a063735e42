"""The designer client.

Owns the model and data, provisions a cascade (a Session) from the directory
pool, and drives all four phases by packing onions and awaiting replies under
a time bound. Each phase is one onion with one packet in flight, answered by
its last hop: set-up is the loop message plus one acknowledged INIT. The
designer is the only party that ever sees the whole route.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import nn, onion
from .crypto import KeyPair
from .onion import CascadeSpec, CascadeEntry

log = logging.getLogger("mixnn.designer")


class CrashDetected(Exception):
    """The cascade failed to answer within the time bound. The designer cannot
    tell which server failed, so no node is named. Carries whatever metrics
    the aborted run had accumulated."""

    def __init__(self, message, metrics=None):
        super().__init__(message)
        self.metrics = metrics


class ConfigError(ValueError):
    pass


@dataclass
class TrainingConfig:
    epochs: int = 1
    batch_size: int = 64
    learning_rate: float = 0.01
    momentum: float = 0.9
    seed: int = 0
    shuffle: bool = True
    time_bound_T: float | None = None  # None: estimate from the setup loop
    hold_first_layer: bool = False
    hold_last_layer: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.time_bound_T is not None and not self.time_bound_T > 0:
            raise ConfigError(f"time bound T must be > 0, got {self.time_bound_T}")


@dataclass
class ProvisionPlan:
    n: int
    p: int
    r: int
    selection_seed: int = 0

    def __post_init__(self):
        if self.n != self.p + self.r:
            raise ConfigError(f"n={self.n} must equal p+r={self.p + self.r}")
        if self.p < 1:
            raise ConfigError("need at least one actual layer slot")
        if self.r < 0:
            raise ConfigError(f"r={self.r} must not be negative")


@dataclass
class EpochRow:
    epoch: int
    loss_mean: float
    accuracy: float  # nan when no test set was supplied
    wall_seconds: float


@dataclass
class RunMetrics:
    rows: list = field(default_factory=list)
    losses: list = field(default_factory=list)  # one per iteration
    crash_events: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["epoch,loss_mean,accuracy,wall_seconds"]
        for r in self.rows:
            lines.append(f"{r.epoch},{r.loss_mean!r},{r.accuracy!r},{r.wall_seconds!r}")
        return "\n".join(lines) + "\n"


@dataclass
class Session(CascadeSpec):
    """A provisioned cascade, which the onion packers take as it is, plus
    what only the designer holds: the loop round-trip time and each held
    boundary layer's (params, optimizer)."""
    rtt: float | None = None  # set by send_designer_loop
    first_state: tuple | None = None  # set by initialize_model
    last_state: tuple | None = None


class Designer:
    """Drives one or more cascades over a designer-side channel.

    The channel must provide send(addr, bytes), recv(timeout) -> bytes
    (raising TimeoutError), now() -> float, and an `address` attribute.
    """

    def __init__(self, channel, keypair: KeyPair):
        self.channel = channel
        self.keypair = keypair

    # -- provisioning -----------------------------------------------------

    def provision(self, pool, model, plan: ProvisionPlan,
                  config: TrainingConfig | None = None,
                  packet_len: int = onion.DEFAULT_PACKET_LEN,
                  exclude_ids=()) -> Session:
        """Select n servers from the pool and assign layers and dummies; the
        returned Session is what every later phase takes.

        model is the full ordered list of LayerSpec including any layers the
        config holds on the designer side; held layers are never assigned to
        a server.
        """
        config = config or TrainingConfig()
        held_first = model[0] if config.hold_first_layer else None
        held_last = model[-1] if config.hold_last_layer else None
        remote = model[1 if held_first else 0: -1 if held_last else None]
        if not remote:
            raise ConfigError("holding both boundary layers left no remote layers")
        if plan.p != len(remote):
            raise ConfigError(f"plan has p={plan.p} but the model needs {len(remote)} servers")

        candidates = sorted((r for r in pool if r.node_id not in set(exclude_ids)),
                            key=lambda r: r.node_id)
        if len(candidates) < plan.n:
            raise ConfigError(f"pool has {len(candidates)} usable servers, need {plan.n}")
        rng = np.random.default_rng(np.random.SeedSequence([plan.selection_seed, 0xCA5CADE]))
        chosen = [candidates[i] for i in rng.choice(len(candidates), plan.n, replace=False)]

        slots = self._place_dummies(remote, plan, rng)
        entries = [
            CascadeEntry(rec.node_id, rec.address, rec.pk, layer)
            for rec, layer in zip(chosen, slots)
        ]
        return Session(
            entries=entries,
            designer_addr=self.channel.address,
            designer_pk=self.keypair.pk,
            packet_len=packet_len,
            learning_rate=config.learning_rate,
            momentum=config.momentum,
            held_first=held_first,
            held_last=held_last,
        )

    @staticmethod
    def _place_dummies(remote, plan: ProvisionPlan, rng):
        """Interleave r dummies, at seeded places, strictly between the first
        and last actual layers so boundary-holding semantics stay well defined."""
        p = len(remote)
        if plan.r == 0:
            return list(remote)
        if p < 2:
            raise ConfigError("dummy layers need at least two actual layers to sit between")
        # a gap g in 1..p-1 means "after the g-th actual layer"; the k-th
        # dummy (0-based) after sorting lands at 0-based slot g + k
        gaps = sorted(rng.integers(1, p, size=plan.r).tolist())
        slots = list(remote)
        for k, g in enumerate(gaps):
            slots.insert(g + k, None)
        return slots

    def replace_cascade(self, old: Session, pool, model, plan: ProvisionPlan,
                        config: TrainingConfig | None = None) -> Session:
        """Provision a replacement cascade on an entirely disjoint server set.

        Training must restart from scratch: the failed servers hold the only
        copies of their parameters and are gone.
        """
        fresh_plan = ProvisionPlan(n=plan.n, p=plan.p, r=plan.r,
                                   selection_seed=plan.selection_seed + 1)
        old_ids = [e.node_id for e in old.entries]
        return self.provision(pool, model, fresh_plan, config=config,
                              packet_len=old.packet_len, exclude_ids=old_ids)

    # -- phases ------------------------------------------------------------

    def send_designer_loop(self, cascade: Session, timeout: float = 30.0) -> float:
        """Send a loop cover message around the whole cascade and back.

        Validates the route without revealing it to anyone and returns the
        round-trip time, which seeds the default crash time bound.
        """
        t0 = self.channel.now()
        self.channel.send(cascade.entries[0].address, onion.pack_cover_loop(cascade))
        self._await(cascade, onion.REPLY_COVER, timeout)
        cascade.rtt = self.channel.now() - t0
        return cascade.rtt

    def initialize_model(self, cascade: Session, config: TrainingConfig | None = None):
        """Rebuild any held layers at the session's learning rate and
        momentum, distribute per-layer roles/chains/seeds, and wait for the
        last hop's acknowledgement."""
        cascade.first_state = self._build_held(cascade, cascade.held_first)
        cascade.last_state = self._build_held(cascade, cascade.held_last)
        self.channel.send(cascade.entries[0].address, onion.pack_init(cascade))
        self._await(cascade, onion.REPLY_ACK, self._deadline(cascade, config))

    @staticmethod
    def _build_held(cascade: Session, spec):
        if spec is None:
            return None
        params = nn.init_layer_params(spec)
        return (params, nn.OptimizerState(params, cascade.learning_rate, cascade.momentum))

    def train(self, cascade: Session, data, labels, config: TrainingConfig,
              test_data=None, test_labels=None) -> RunMetrics:
        """Run epochs of forward+backward iterations over mini-batches.

        Exactly one packet is in flight at any time; the backward onion is
        only packed once the iteration's loss (or held-loss input) returned.
        """
        data = nn.as_matrix(data)
        labels = np.asarray(labels)
        metrics = RunMetrics()
        deadline = self._deadline(cascade, config)
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            epoch_losses = []
            for idx in nn.batch_indices(len(data), config.batch_size,
                                        config.shuffle, config.seed, epoch):
                try:
                    loss = self._iteration(cascade, data[idx], labels[idx], deadline)
                except CrashDetected as crash:
                    metrics.crash_events.append(
                        f"epoch {epoch + 1} iteration {len(metrics.losses) + 1}: {crash}"
                    )
                    if epoch_losses:
                        metrics.rows.append(EpochRow(
                            epoch + 1, float(np.mean(epoch_losses)), float("nan"),
                            time.perf_counter() - t0))
                    raise CrashDetected(str(crash), metrics=metrics) from None
                epoch_losses.append(loss)
                metrics.losses.append(loss)
            accuracy = float("nan")
            if test_data is not None:
                accuracy = self.test(cascade, test_data, test_labels,
                                     batch_size=config.batch_size, config=config)
            loss_mean = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
            metrics.rows.append(EpochRow(epoch + 1, loss_mean, accuracy,
                                         time.perf_counter() - t0))
        return metrics

    def _iteration(self, cascade: Session, x, y, deadline):
        first, last = cascade.first_state, cascade.last_state
        if first is not None:
            x, first_cache = nn.layer_forward(cascade.held_first, first[0], x)
        wire_labels = None if last is not None else y
        self.channel.send(cascade.entries[0].address,
                          onion.pack_forward(cascade, x, wire_labels))

        initial_grad = None
        if last is not None:
            _, payload = self._await(cascade, onion.REPLY_OUTPUT, deadline)
            z = onion.decode_matrix(payload)
            loss, last_cache = nn.layer_forward(cascade.held_last, last[0], z, labels=y)
            initial_grad = nn.layer_backward(cascade.held_last, *last, last_cache)
        else:
            _, payload = self._await(cascade, onion.REPLY_LOSS, deadline)
            loss = onion.decode_matrix(payload)[0, 0]

        self.channel.send(cascade.entries[-1].address,
                          onion.pack_backward(cascade, initial_grad,
                                              input_grad=cascade.held_first is not None))
        _, ack_payload = self._await(cascade, onion.REPLY_ACK, deadline)
        if first is not None:
            dx0 = onion.decode_matrix(ack_payload)
            nn.layer_backward(cascade.held_first, *first, first_cache, dx0, input_grad=False)
        return loss

    def predict(self, cascade: Session, data, batch_size: int = 64,
                config: TrainingConfig | None = None) -> np.ndarray:
        """Log-probabilities for data, batch by batch: through any held first
        layer, every remote hop, then any held last layer, with loss steps
        acting as pass-throughs."""
        data = nn.as_matrix(data)
        first, last = cascade.first_state, cascade.last_state
        deadline = self._deadline(cascade, config)
        outs = []
        for start in range(0, len(data), batch_size):
            x = data[start:start + batch_size]
            if first is not None:
                x, _ = nn.layer_forward(cascade.held_first, first[0], x, train=False)
            self.channel.send(cascade.entries[0].address,
                              onion.pack_test(cascade, x, cascade.n))
            _, payload = self._await(cascade, onion.REPLY_OUTPUT, deadline)
            out = onion.decode_matrix(payload)
            if last is not None:
                out, _ = nn.layer_forward(cascade.held_last, last[0], out, train=False)
            outs.append(out)
        return np.concatenate(outs, axis=0) if outs else np.zeros((0, 0), dtype=np.float32)

    def test(self, cascade: Session, data, labels, batch_size: int = 64,
             config: TrainingConfig | None = None) -> float:
        """Classification accuracy: proportion of correct argmax predictions."""
        logp = self.predict(cascade, data, batch_size=batch_size, config=config)
        predictions = np.argmax(logp, axis=1)
        return float(np.mean(predictions == np.asarray(labels)))

    def validate_model(self, cascade: Session, data, labels, threshold: float,
                       config: TrainingConfig | None = None) -> bool:
        """Byzantine check: accept the trained model only if holdout accuracy
        reaches the threshold. A False verdict calls for cascade replacement."""
        accuracy = self.test(cascade, data, labels, config=config)
        log.info("validation accuracy=%.4f threshold=%.4f", accuracy, threshold)
        return accuracy >= threshold

    # -- plumbing ----------------------------------------------------------

    def _await(self, cascade: Session, expected: str, timeout: float):
        """Wait for the designer-bound reply of the expected kind.

        Raises CrashDetected on deadline expiry; deliberately never says
        which server failed, because the designer cannot know.
        """
        deadline = self.channel.now() + timeout
        while True:
            remaining = deadline - self.channel.now()
            if remaining <= 0:
                raise CrashDetected(f"no response within time bound T={timeout:.6g}s")
            try:
                raw = self.channel.recv(remaining)
            except TimeoutError:
                raise CrashDetected(f"no response within time bound T={timeout:.6g}s") from None
            try:
                record, payload, _ = onion.unwrap(self.keypair.private, raw,
                                                  expected_len=cascade.packet_len,
                                                  build_next=False)
            except Exception as exc:
                log.warning("designer dropped undecipherable reply: %s", exc)
                continue
            if record.reply == expected:
                return record, payload
            log.warning("designer ignoring unexpected reply kind=%s (awaiting %s)",
                        record.reply, expected)

    def _deadline(self, cascade: Session, config: TrainingConfig | None) -> float:
        if config is not None and config.time_bound_T is not None:
            return config.time_bound_T
        if cascade.rtt is not None and cascade.rtt > 0:
            return 100.0 * cascade.rtt
        return 30.0
