import base64
import os
import re
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mixnn import cli
from mixnn.crypto import gen_keypair, open_sealed, seal
from mixnn.designer import Designer
from mixnn.directory import Directory
from mixnn.harness import DirectoryClient, DirectoryServer, spawn_pool


SIM_CONFIG = """
mode = simulated
model = linear:784x32,relu | linear:32x16,relu | linear:16x10 | logsoftmax | nllloss
n = 5
p = 5
r = 0
epochs = 1
batch_size = 32
seed = 7
data = synthetic
limit = 96
packet_len = 262144
time_bound = 5.0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestKeygen:
    def test_unseeded_twice_distinct(self, tmp_path):
        runner = CliRunner()
        assert runner.invoke(cli.main, ["keygen", "--out", str(tmp_path / "a")]).exit_code == 0
        assert runner.invoke(cli.main, ["keygen", "--out", str(tmp_path / "b")]).exit_code == 0
        assert (tmp_path / "a.pk").read_text() != (tmp_path / "b.pk").read_text()

    def test_seeded_reproducible(self, tmp_path):
        runner = CliRunner()
        for name in ("a", "b"):
            result = runner.invoke(cli.main, ["keygen", "--out", str(tmp_path / name),
                                              "--seed", "00ff"])
            assert result.exit_code == 0
        assert (tmp_path / "a.pk").read_text() == (tmp_path / "b.pk").read_text()

    def test_keys_work_and_sk_is_private(self, tmp_path):
        runner = CliRunner()
        runner.invoke(cli.main, ["keygen", "--out", str(tmp_path / "k")])
        pk = base64.b64decode((tmp_path / "k.pk").read_text().strip())
        sk = base64.b64decode((tmp_path / "k.sk").read_text().strip())
        assert open_sealed(sk, seal(pk, b"roundtrip")) == b"roundtrip"
        mode = stat.S_IMODE(os.stat(tmp_path / "k.sk").st_mode)
        assert mode == 0o600

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing-0644"])
    def test_sk_is_created_private(self, tmp_path, monkeypatch, existing):
        # the mode must not depend on a chmod after the key is written
        sk_path = tmp_path / "k.sk"
        if existing:
            sk_path.write_text("old\n")
            sk_path.chmod(0o644)
        monkeypatch.setattr(os, "chmod", lambda *args, **kwargs: None)
        old_umask = os.umask(0o022)
        try:
            result = CliRunner().invoke(cli.main, ["keygen", "--out", str(tmp_path / "k")])
        finally:
            os.umask(old_umask)
        assert result.exit_code == 0, result.output
        assert stat.S_IMODE(os.stat(sk_path).st_mode) == 0o600

    def test_no_command_prints_sk(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(cli.main, ["keygen", "--out", str(tmp_path / "k"),
                                          "--seed", "aa"])
        sk_b64 = (tmp_path / "k.sk").read_text().strip()
        assert sk_b64 not in result.output


class TestReadKeypair:
    def write_pair(self, tmp_path, pk, sk):
        base = tmp_path / "k"
        (tmp_path / "k.pk").write_text(base64.b64encode(pk).decode() + "\n")
        (tmp_path / "k.sk").write_text(base64.b64encode(sk).decode() + "\n")
        return str(base)

    def test_keygen_pair_reads_back(self, tmp_path):
        kp = gen_keypair(b"a")
        assert cli._read_keypair(self.write_pair(tmp_path, kp.pk, kp.sk)) == kp

    def test_mixed_pair_rejected(self, tmp_path):
        a, b = gen_keypair(b"a"), gen_keypair(b"b")
        with pytest.raises(ValueError, match="not the public key"):
            cli._read_keypair(self.write_pair(tmp_path, a.pk, b.sk))

    @pytest.mark.parametrize("short", ["pk", "sk"])
    def test_31_byte_key_rejected(self, tmp_path, short):
        kp = gen_keypair(b"a")
        pk = kp.pk[:31] if short == "pk" else kp.pk
        sk = kp.sk[:31] if short == "sk" else kp.sk
        with pytest.raises(ValueError, match="32 bytes"):
            cli._read_keypair(self.write_pair(tmp_path, pk, sk))

    def test_node_with_mixed_pair_is_usage_error(self, tmp_path):
        a, b = gen_keypair(b"a"), gen_keypair(b"b")
        base = self.write_pair(tmp_path, a.pk, b.sk)
        result = CliRunner().invoke(cli.main, ["node", "--key", base,
                                               "--directory", "127.0.0.1:1"])
        assert result.exit_code == 2, result.output
        assert f"bad key pair {base}" in result.output


class TestConfigParsing:
    def test_error_names_line_number(self, tmp_path):
        path = write(tmp_path, "bad.cfg", "epochs = 1\nthis line is wrong\n")
        with pytest.raises(cli.ConfigFileError, match=r"bad\.cfg:2"):
            cli.parse_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write(tmp_path, "ok.cfg", "# hi\n\nepochs = 3\n")
        assert cli.parse_config(path) == {"epochs": "3"}

    def test_parse_model_table(self):
        chains = cli.parse_model(cli.TABLE_MODEL)
        assert len(chains) == 5
        assert chains[0][0].kind == "linear"
        assert (chains[0][0].in_dim, chains[0][0].out_dim) == (784, 128)
        assert chains[4][0].kind == "nllloss"

    def test_parse_model_unknown_primitive(self):
        with pytest.raises(cli.ConfigFileError):
            cli.parse_model("linear:4x2, sigmoid")

    def test_booleans_in_any_case(self):
        config = cli._training_config({"shuffle": "FALSE", "hold_first_layer": "True"})
        assert (config.shuffle, config.hold_first_layer, config.hold_last_layer) == \
            (False, True, False)

    def test_readme_schema_names_the_keys_cli_reads(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("### Config file schema", 1)[1].split("\n#", 1)[0]
        documented = set()
        for line in table.splitlines():
            if line.startswith("| `"):
                documented.update(re.findall(r"`(\w+)`", line.split(" | ")[0]))
        source = Path(cli.__file__).read_text()
        read = set(re.findall(r'cfg\.get\("(\w+)"', source))
        read.update(re.findall(r'cfg\["(\w+)"\]', source))
        read.update(re.findall(r'"(\w+)" in cfg', source))
        for key in re.findall(r'prefix \+ "(\w+)"', source):
            read.update((key, "test_" + key))
        assert documented == read


class TestTrainCommand:
    def test_simulated_smoke_run_exits_zero(self, tmp_path):
        runner = CliRunner()
        cfg = write(tmp_path, "sim.cfg", SIM_CONFIG)
        result = runner.invoke(cli.main, ["train", "--config", cfg])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("epoch,loss_mean,accuracy,wall_seconds")

    def test_missing_config_is_usage_error(self):
        result = CliRunner().invoke(cli.main, ["train"])
        assert result.exit_code == 2

    def test_unreadable_config_is_usage_error(self, tmp_path):
        result = CliRunner().invoke(cli.main, ["train", "--config",
                                               str(tmp_path / "absent.cfg")])
        assert result.exit_code == 2

    def test_kill_plan_exits_with_crash_code(self, tmp_path):
        plan = write(tmp_path, "faults.txt", "node=slot:3 action=kill at_iteration=2\n")
        cfg = write(tmp_path, "sim.cfg", SIM_CONFIG + f"fault_plan = {plan}\n")
        result = CliRunner().invoke(cli.main, ["train", "--config", cfg])
        assert result.exit_code == 3, result.output

    def test_validation_failure_exit_code(self, tmp_path):
        # untrained-ish single epoch on hard threshold must fail validation
        plan = write(tmp_path, "faults.txt", "node=slot:2 action=tamper\n")
        cfg = write(tmp_path, "sim.cfg",
                    SIM_CONFIG + f"fault_plan = {plan}\nthreshold = 0.9\nepochs = 3\n"
                    + "limit = 256\n")
        result = CliRunner().invoke(cli.main, ["train", "--config", cfg])
        assert result.exit_code == 4, result.output

    def test_dummy_relay_needs_no_n_or_p(self, tmp_path, monkeypatch):
        # n and p follow from the model and r; a dummy relays without
        # touching the arithmetic, so the losses still equal the oracle's
        sessions = []
        provision = Designer.provision

        def recording_provision(*args, **kwargs):
            sessions.append(provision(*args, **kwargs))
            return sessions[-1]

        monkeypatch.setattr(Designer, "provision", recording_provision)
        cfg = write(tmp_path, "sim.cfg", SIM_CONFIG.replace("n = 5\np = 5\nr = 0\n", "r = 1\n"))
        runner = CliRunner()
        train = runner.invoke(cli.main, ["train", "--config", cfg])
        assert train.exit_code == 0, train.output
        entries = sessions[0].entries
        assert len(entries) == 6 and sum(e.layer is None for e in entries) == 1
        baseline = runner.invoke(cli.main, ["baseline", "--config", cfg])
        assert baseline.exit_code == 0, baseline.output
        loss_mean = [r.output.splitlines()[1].split(",")[1] for r in (train, baseline)]
        assert loss_mean[0] == loss_mean[1]

    def test_metrics_file_output(self, tmp_path):
        cfg = write(tmp_path, "sim.cfg", SIM_CONFIG)
        out = str(tmp_path / "metrics.csv")
        result = CliRunner().invoke(cli.main, ["train", "--config", cfg, "--out", out])
        assert result.exit_code == 0
        assert (tmp_path / "metrics.csv").read_text().startswith("epoch,")


class TestTestCommand:
    def test_simulated_run_prints_accuracy(self, tmp_path):
        cfg = write(tmp_path, "sim.cfg", SIM_CONFIG)
        result = CliRunner().invoke(cli.main, ["test", "--config", cfg])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("accuracy=")
        assert 0.0 <= float(result.output.strip().split("=", 1)[1]) <= 1.0

    def test_missing_config_file_is_usage_error(self, tmp_path):
        result = CliRunner().invoke(cli.main, ["test", "--config",
                                               str(tmp_path / "absent.cfg")])
        assert result.exit_code == 2

    def test_kill_plan_exits_with_crash_code(self, tmp_path):
        plan = write(tmp_path, "faults.txt", "node=slot:3 action=kill at_iteration=2\n")
        cfg = write(tmp_path, "sim.cfg", SIM_CONFIG + f"fault_plan = {plan}\n")
        result = CliRunner().invoke(cli.main, ["test", "--config", cfg])
        assert result.exit_code == 3, result.output

    def test_missing_holdout_file_is_io_error(self, tmp_path):
        # the accuracy is scored on the configured test set, not on the
        # training set, so an absent test file must fail like under `train`
        cfg = write(tmp_path, "sim.cfg", SIM_CONFIG + "test_data = mnist\n"
                    f"test_images = {tmp_path / 'absent-images'}\n"
                    f"test_labels = {tmp_path / 'absent-labels'}\n")
        result = CliRunner().invoke(cli.main, ["test", "--config", cfg])
        assert result.exit_code == 5, result.output


class TestPacketCapacity:
    @pytest.mark.parametrize("command", ["train", "test"])
    def test_batch_larger_than_packet_is_config_error(self, tmp_path, command):
        # 64 x 784 float32 inputs need about 200 KB, more than L = 128 KiB
        cfg = write(tmp_path, "sim.cfg",
                    SIM_CONFIG + "packet_len = 131072\nbatch_size = 64\n")
        result = CliRunner().invoke(cli.main, [command, "--config", cfg])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output
        assert "Traceback" not in result.output


class TestMalformedConfig:
    @pytest.mark.parametrize("extra", [
        pytest.param("epochs = two\n", id="epochs"),
        pytest.param("packet_len = big\n", id="packet-len"),
        pytest.param("model = linear:7\n", id="model"),
        pytest.param("fault_plan = {plan}\n", id="fault-plan"),
    ])
    def test_malformed_value_is_config_error(self, tmp_path, extra):
        plan = write(tmp_path, "faults.txt", "garbage\n")
        cfg = write(tmp_path, "sim.cfg", SIM_CONFIG + extra.format(plan=plan))
        result = CliRunner().invoke(cli.main, ["train", "--config", cfg])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("target", ["nope", "slot:99", "slot:0"])
    def test_fault_plan_naming_no_cascade_node_is_config_error(self, tmp_path, target):
        plan = write(tmp_path, "faults.txt", f"node={target} action=kill\n")
        cfg = write(tmp_path, "sim.cfg", SIM_CONFIG + f"fault_plan = {plan}\n")
        result = CliRunner().invoke(cli.main, ["train", "--config", cfg])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output and target in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("extra,key", [
        pytest.param("limit = 0\n", "limit", id="limit-0"),
        pytest.param("limit = -3\n", "limit", id="limit-negative"),
        pytest.param("test_data = synthetic\ntest_limit = 0\n", "test_limit", id="test-limit-0"),
    ])
    def test_limit_below_one_is_config_error(self, tmp_path, extra, key):
        cfg = write(tmp_path, "sim.cfg", SIM_CONFIG + extra)
        result = CliRunner().invoke(cli.main, ["train", "--config", cfg])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output and key in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("extra", ["shuffle = no\n", "hold_last_layer = yes\n"])
    def test_boolean_other_than_true_or_false_is_config_error(self, tmp_path, extra):
        cfg = write(tmp_path, "sim.cfg", SIM_CONFIG + extra)
        result = CliRunner().invoke(cli.main, ["train", "--config", cfg])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("key, value", [("epochs", "two"), ("shuffle", "no"),
                                            ("threshold", "high")])
    def test_malformed_value_error_names_its_key_before_training(self, tmp_path, monkeypatch,
                                                                 key, value):
        trained = []
        monkeypatch.setattr(Designer, "train", lambda *args, **kw: trained.append(1))
        cfg = write(tmp_path, "sim.cfg", SIM_CONFIG + f"{key} = {value}\n")
        result = CliRunner().invoke(cli.main, ["train", "--config", cfg])
        assert result.exit_code == 2, result.output
        assert f"config error: {cfg}:14: {key} = '{value}': " in result.output
        assert "Traceback" not in result.output
        assert trained == []

    def test_one_pixel_synthetic_input_is_config_error(self, tmp_path):
        cfg = write(tmp_path, "sim.cfg", SIM_CONFIG + "input_dim = 1\n")
        result = CliRunner().invoke(cli.main, ["train", "--config", cfg])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output and "dim" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command", ["train", "test", "baseline"])
    def test_layers_that_do_not_chain_are_config_error(self, tmp_path, command):
        # layer 1 puts out 32 features, layer 2 takes 64
        model = "linear:784x32,relu | linear:64x16,relu | linear:16x10 | logsoftmax | nllloss"
        cfg = write(tmp_path, "sim.cfg", SIM_CONFIG + f"model = {model}\n")
        result = CliRunner().invoke(cli.main, [command, "--config", cfg])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output and "layer 2" in result.output
        assert "Traceback" not in result.output


class TestBaselineAndCompare:
    def test_train_equals_baseline_through_cli(self, tmp_path):
        cfg = write(tmp_path, "sim.cfg",
                    SIM_CONFIG + "test_data = synthetic\ntest_limit = 64\n")
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        runner = CliRunner()
        assert runner.invoke(cli.main, ["train", "--config", cfg, "--out", a]).exit_code == 0
        assert runner.invoke(cli.main, ["baseline", "--config", cfg, "--out", b]).exit_code == 0
        result = runner.invoke(cli.main, ["compare", "--metrics", a, b])
        assert result.exit_code == 0, result.output
        assert "max_delta=0.000000" in result.output

    def test_synthetic_holdout_is_not_the_training_set(self, tmp_path):
        cfg = cli.parse_config(write(tmp_path, "sim.cfg", SIM_CONFIG
                                     + "test_data = synthetic\ntest_limit = 96\n"))
        train, holdout = cli._datasets(cfg, 7)
        assert train.images.shape == holdout.images.shape
        shared = (holdout.images[:, None, :] == train.images[None, :, :]).all(axis=2)
        assert not shared.any()

    def test_identical_files_compare_clean(self, tmp_path):
        path = write(tmp_path, "m.csv",
                     "epoch,loss_mean,accuracy,wall_seconds\n1,0.5,0.9,1.0\n")
        result = CliRunner().invoke(cli.main, ["compare", "--metrics", path, path])
        assert result.exit_code == 0
        assert "max_delta=0.000000" in result.output

    def test_epoch_count_mismatch(self, tmp_path):
        a = write(tmp_path, "a.csv",
                  "epoch,loss_mean,accuracy,wall_seconds\n1,0.5,0.9,1.0\n")
        b = write(tmp_path, "b.csv",
                  "epoch,loss_mean,accuracy,wall_seconds\n1,0.5,0.9,1.0\n2,0.4,0.91,1.0\n")
        result = CliRunner().invoke(cli.main, ["compare", "--metrics", a, b])
        assert result.exit_code == 2

    @pytest.mark.parametrize("row", ["1,0.5,notanumber,1.0", "1"],
                             ids=["accuracy-not-a-number", "one-column"])
    def test_malformed_file_is_usage_error(self, tmp_path, row):
        good = write(tmp_path, "good.csv",
                     "epoch,loss_mean,accuracy,wall_seconds\n1,0.5,0.9,1.0\n")
        bad = write(tmp_path, "bad.csv", f"epoch,loss_mean,accuracy,wall_seconds\n{row}\n")
        result = CliRunner().invoke(cli.main, ["compare", "--metrics", good, bad])
        assert result.exit_code == 2, result.output
        assert f"malformed metrics file {bad}" in result.output

    def test_reported_epoch10_gap_from_different_seeds(self, tmp_path):
        # two training runs with unrelated seeds land about 0.006 apart at
        # epoch 10 (0.9638 vs 0.9699): reported, and above the 0.001 gate
        a = write(tmp_path, "mixnn.csv",
                  "epoch,loss_mean,accuracy,wall_seconds\n"
                  "10,0.1,0.9638734076433121,100.0\n")
        b = write(tmp_path, "mlp.csv",
                  "epoch,loss_mean,accuracy,wall_seconds\n"
                  "10,0.1,0.9699442675159236,14.0\n")
        result = CliRunner().invoke(cli.main, ["compare", "--metrics", a, b])
        assert result.exit_code == 1
        assert "delta=0.006071" in result.output


class TestSocketMode:
    @pytest.fixture
    def socket_config(self, tmp_path):
        """A directory server and five socket nodes in this process, and a
        config that trains on them."""
        server = DirectoryServer(Directory())
        server.start()
        pool = spawn_pool("socket", 5, DirectoryClient(server.address), packet_len=262144)
        try:
            yield SIM_CONFIG.replace("mode = simulated", "mode = socket") + (
                f"directory = {server.address}\n")
        finally:
            pool.stop()
            server.stop()

    def test_train_matches_baseline(self, tmp_path, socket_config):
        cfg = write(tmp_path, "socket.cfg", socket_config)
        runner = CliRunner()
        train = runner.invoke(cli.main, ["train", "--config", cfg])
        assert train.exit_code == 0, train.output
        baseline = runner.invoke(cli.main, ["baseline", "--config", cfg])
        assert baseline.exit_code == 0, baseline.output
        loss_mean = [r.output.splitlines()[1].split(",")[1] for r in (train, baseline)]
        assert loss_mean[0] == loss_mean[1]

    def test_fault_plan_is_config_error(self, tmp_path, socket_config):
        plan = write(tmp_path, "faults.txt", "node=slot:3 action=kill at_iteration=2\n")
        cfg = write(tmp_path, "socket.cfg", socket_config + f"fault_plan = {plan}\n")
        result = CliRunner().invoke(cli.main, ["train", "--config", cfg])
        assert result.exit_code == 2, result.output
        assert "config error: fault_plan needs mode = simulated" in result.output


class TestNodeCommand:
    def _popen(self, *args):
        return subprocess.Popen(
            [sys.executable, "-m", "mixnn.cli", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )

    def test_node_registers_and_shuts_down_cleanly(self, tmp_path):
        directory = Directory()
        server = DirectoryServer(directory)
        server.start()
        try:
            runner = CliRunner()
            runner.invoke(cli.main, ["keygen", "--out", str(tmp_path / "k"),
                                     "--seed", "01"])
            proc = self._popen("node", "--key", str(tmp_path / "k"),
                               "--directory", str(server.address),
                               "--node-id", "cli-node")
            try:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if any(r.node_id == "cli-node" for r in directory.list()):
                        break
                    time.sleep(0.1)
                else:
                    pytest.fail("node never appeared in the directory")
            finally:
                proc.send_signal(signal.SIGINT)
                proc.communicate(timeout=10)  # waits, and closes the pipes
            assert proc.returncode == 0
        finally:
            server.stop()

    def test_duplicate_node_id_exits_nonzero(self, tmp_path):
        directory = Directory()
        server = DirectoryServer(directory)
        server.start()
        try:
            runner = CliRunner()
            runner.invoke(cli.main, ["keygen", "--out", str(tmp_path / "k1"),
                                     "--seed", "01"])
            runner.invoke(cli.main, ["keygen", "--out", str(tmp_path / "k2"),
                                     "--seed", "02"])
            first = self._popen("node", "--key", str(tmp_path / "k1"),
                                "--directory", str(server.address),
                                "--node-id", "dup")
            try:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline and not directory.list():
                    time.sleep(0.1)
                second = self._popen("node", "--key", str(tmp_path / "k2"),
                                     "--directory", str(server.address),
                                     "--node-id", "dup")
                second.communicate(timeout=10)
                assert second.returncode != 0
            finally:
                first.send_signal(signal.SIGINT)
                first.communicate(timeout=10)
        finally:
            server.stop()

    @pytest.mark.parametrize("sig, ignore_sigint", [(signal.SIGTERM, False),
                                                    (signal.SIGINT, True)])
    def test_directory_stops_cleanly_on_signal(self, sig, ignore_sigint):
        # a background job of a non-interactive shell starts with SIGINT ignored
        preexec = ((lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
                   if ignore_sigint else None)
        proc = subprocess.Popen([sys.executable, "-m", "mixnn.cli", "directory"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, preexec_fn=preexec)
        try:
            assert "listening on" in proc.stdout.readline()
            proc.send_signal(sig)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()

    def test_missing_key_file_is_io_error(self, tmp_path):
        result = CliRunner().invoke(cli.main, ["node", "--key", str(tmp_path / "nope"),
                                               "--directory", "127.0.0.1:1"])
        assert result.exit_code == 5
