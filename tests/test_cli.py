"""Command-line interface tests: subcommands, manifests, determinism, and
error paths."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mhdlab
from mhdlab import cli, verify


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestKernelScan:
    def test_row_count(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code, _, _ = run_cli(["kernel", "scan", "--t", "0,1,10", "--kmax", "8",
                              "--n", "16", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 16 * 16
        assert out.with_suffix(".csv.manifest.json").exists()

    def test_stdout_output(self, capsys):
        code, text, _ = run_cli(["kernel", "scan", "--t", "0", "--n", "4",
                                 "--kmax", "2", "--out", "-"], capsys)
        assert code == 0
        header = text.splitlines()[0].split(",")
        assert header[:4] == ["t", "xi", "eta", "A"]
        assert "envelope_8" in header

    def test_missing_t_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["kernel", "scan"])
        assert err.value.code == 2

    def test_full_precision_floats(self, capsys):
        code, text, _ = run_cli(["kernel", "scan", "--t", "0.1", "--n", "4",
                                 "--kmax", "2", "--out", "-"], capsys)
        row = text.splitlines()[1].split(",")
        value = float(row[4])
        assert row[4] == "{:.17g}".format(value)

    @pytest.mark.parametrize("times", ["1,nan", "inf", "0,-inf"])
    def test_nonfinite_time_exit_2(self, tmp_path, capsys, times):
        out = tmp_path / "scan.csv"
        code, _, err = run_cli(["kernel", "scan", "--t", times, "--n", "4",
                                "--out", str(out)], capsys)
        assert code == 2
        assert f"--t: times must be finite, got {times}" in err
        assert not out.exists()

    @pytest.mark.parametrize("c_decay", ["nan", "inf", "-inf"])
    def test_nonfinite_c_decay_exit_2(self, tmp_path, capsys, c_decay):
        out = tmp_path / "scan.csv"
        code, _, err = run_cli(["kernel", "scan", "--t", "5", "--n", "4",
                                f"--c-decay={c_decay}", "--out", str(out)], capsys)
        assert code == 2
        assert "c_decay must be positive and finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("times,named", [("-1", "-1"), ("0,0.5,-0.25", "-0.25")])
    def test_negative_time_exit_2(self, tmp_path, capsys, times, named):
        out = tmp_path / "scan.csv"
        code, _, err = run_cli(["kernel", "scan", "--t", times, "--n", "4",
                                "--out", str(out)], capsys)
        assert code == 2
        assert f"--t: times must be nonnegative, got {named}" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--n", "0"], "invalid-budget: n must be positive, got 0"),
        (["--kmax", "nan"], "invalid-budget: kmax must be finite and positive, got nan"),
    ])
    def test_empty_grid_exit_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "scan.csv"
        code, _, err = run_cli(["kernel", "scan", "--t", "0,1", *flags, "--out", str(out)],
                               capsys)
        assert code == 2
        assert message in err and "Traceback" not in err
        assert not out.exists()


class TestLinearCommands:
    def test_oracle_test_json(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        code, _, _ = run_cli(["linear", "oracle-test", "--samples", "50",
                              "--seed", "7", "--json", str(out)], capsys)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["max_rel_err"] <= 1e-8
        assert out.with_suffix(".manifest.json").exists()

    def test_charpoly(self, capsys):
        code, text, _ = run_cli(["linear", "charpoly", "--kmax", "4", "--n", "8"], capsys)
        assert code == 0
        assert "max residual" in text

    def test_decay_csv_and_json(self, tmp_path, capsys):
        csv = tmp_path / "decay.csv"
        js = tmp_path / "decay.json"
        code, text, _ = run_cli(["linear", "decay", "--prop", "kn5L",
                                 "--t0", "10", "--t1", "400", "--points", "5",
                                 "--csv", str(csv), "--json", str(js)], capsys)
        assert code == 0
        assert "fitted slope" in text
        assert len(csv.read_text().strip().splitlines()) == 6
        payload = json.loads(js.read_text())
        assert payload["quantity_id"] == "kn5L"
        manifest = json.loads(csv.with_suffix(".csv.manifest.json").read_text())
        assert sorted(manifest["outputs"]) == ["decay.csv", "decay.json"]
        assert not js.with_suffix(".manifest.json").exists()

    def test_decay_json_alone_writes_manifest(self, tmp_path, capsys):
        js = tmp_path / "d.json"
        code, _, _ = run_cli(["linear", "decay", "--prop", "kn5L",
                              "--t0", "10", "--t1", "400", "--points", "5",
                              "--json", str(js)], capsys)
        assert code == 0
        manifest = json.loads((tmp_path / "d.manifest.json").read_text())
        assert manifest["outputs"] == {"d.json": sha256_of(js)}

    def test_symbol_norm(self, capsys):
        code, text, _ = run_cli(["linear", "symbol-norm", "--symbol", "A4K",
                                 "--region", "le1", "--t", "0"], capsys)
        assert code == 0
        assert float(text.strip()) >= 0.0

    # each invalid input is named on stderr with exit 2, no traceback
    @pytest.mark.parametrize("argv,message", [
        (["decay", "--prop", "kn1L", "--points", "0"], "decay times must be nonempty"),
        (["decay", "--prop", "kn1L", "--t0", "5"], "all >= 10"),
        (["oracle-test", "--samples", "0"], "invalid-budget: samples must be positive"),
        (["symbol-norm", "--symbol", "A4K", "--t", "-1"], "t must be nonnegative"),
        (["symbol-norm", "--symbol", "A4K", "--t", "1", "--region", "simx"],
         "unknown region 'simx'"),
        (["symbol-norm", "--symbol", "A4K", "--t", "1", "--region", "sim0"],
         "unknown region 'sim0'"),
        (["decay", "--prop", "kn1L", "--t0", "nan"], "decay times must be finite, got nan"),
        (["symbol-norm", "--symbol", "A4K", "--t", "inf"], "t must be finite, got inf"),
        (["symbol-norm", "--symbol", "K", "--t", "1", "--q-xi", "1", "--q-eta", "inf",
          "--region", "sim0." + "0" * 319 + "1"], "panel-underflow: the span 1e-320"),
        (["symbol-norm", "--symbol", "K", "--t", "1", "--q-xi", "1", "--q-eta", "inf",
          "--region", "sim" + "9" * 400], "N must be finite, got inf"),
        (["charpoly", "--n", "0"], "invalid-budget: n must be positive, got 0"),
        (["charpoly", "--kmax", "0"], "invalid-budget: kmax must be finite and positive, got 0.0"),
        (["charpoly", "--kmax", "nan"], "invalid-budget: kmax must be finite and positive, got nan"),
        (["symbol-norm", "--symbol", "A4K", "--t", "1", "--q-xi", "0", "--q-eta", "0"],
         "q_xi must be in [1, inf], got 0.0"),
        (["symbol-norm", "--symbol", "A4K", "--t", "1", "--q-xi", "-1", "--q-eta", "2"],
         "q_xi must be in [1, inf], got -1.0"),
        (["symbol-norm", "--symbol", "A4K", "--t", "1", "--q-xi", "1", "--q-eta", "nan"],
         "q_eta must be in [1, inf], got nan"),
        (["decay", "--prop", "kn1L", "--points", "2"],
         "--points: a slope fit needs at least 3 times, got 2"),
        (["decay", "--prop", "kn1L", "--points", "1"],
         "--points: a slope fit needs at least 3 times, got 1"),
        (["symbol-norm", "--symbol", "K", "--q-xi", "1", "--q-eta", "1", "--t", "4e6"],
         "t = 4e+06 needs 20340 radial panels"),
        (["decay", "--prop", "kn1L", "--t0", "7e7", "--t1", "3e9", "--points", "3"],
         "the polar mesh resolves t up to 6.245e+07"),
    ], ids=["decay-no-points", "decay-early-t0", "oracle-no-samples", "symbol-norm-negative-t",
            "symbol-norm-bad-region", "symbol-norm-zero-scale", "decay-nan-t0",
            "symbol-norm-infinite-t", "symbol-norm-subnormal-scale",
            "symbol-norm-infinite-scale", "charpoly-no-samples", "charpoly-zero-kmax",
            "charpoly-nan-kmax", "symbol-norm-zero-exponents", "symbol-norm-negative-exponent",
            "symbol-norm-nan-exponent", "decay-two-points", "decay-one-point",
            "symbol-norm-band-past-cap", "decay-band-past-cap"])
    def test_invalid_input_exit_2(self, capsys, argv, message):
        code, _, err = run_cli(["linear", *argv], capsys)
        assert code == 2
        assert message in err and "Traceback" not in err

    def test_quadrature_error_exit_3(self, capsys, monkeypatch):
        # levels that never agree to 1 %: linear._refined gives up at level 8
        monkeypatch.setattr(cli._linear, "_lq_polar",
                            lambda *args, n_rho, **kwargs: float(n_rho))
        code, _, err = run_cli(["linear", "decay", "--prop", "kn1L", "--t0", "316",
                                "--t1", "1e4", "--points", "3"], capsys)
        assert code == 3
        assert "mhdlab linear: quadrature-nonconvergence in decay(kn1L, t=316.0)" in err
        assert "Traceback" not in err

    def test_other_errors_propagate(self, monkeypatch):
        def broken(**kwargs):
            raise RuntimeError("not an input error")

        monkeypatch.setattr(cli._linear, "oracle_scan", broken)
        with pytest.raises(RuntimeError, match="not an input error"):
            cli.main(["linear", "oracle-test", "--samples", "5"])


class TestSimulate:
    def _config(self, tmp_path, **overrides):
        cfg = {"nx": 16, "ny": 16, "Lx": 12.566370614359172,
               "Ly": 12.566370614359172, "T": 1.0, "dt": 0.1, "cadence": 0.5,
               "delta": 1e-4, "lambda": 0.05, "init": "random", "seed": 3}
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_completes_with_expected_rows(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out = tmp_path / "run"
        code, text, _ = run_cli(["simulate", "--config", str(cfg),
                                 "--out", str(out)], capsys)
        assert code == 0
        rows = (out / "trajectory.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 1 + int(1.0 / 0.5)  # header + t=0 + cadence rows
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_digest"]
        assert manifest["seed"] == 3  # the config's seed

    def test_progress_lines_and_same_trajectory(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        code, _, quiet = run_cli(["simulate", "--config", str(cfg),
                                  "--out", str(tmp_path / "quiet")], capsys)
        assert code == 0 and quiet == ""
        code, _, err = run_cli(["simulate", "--config", str(cfg), "--progress",
                                "--out", str(tmp_path / "loud")], capsys)
        assert code == 0
        # observations at t = 0.5 and 1.0; none is reported for t = 0
        assert [line.split()[0] for line in err.splitlines()] == ["t=0.5", "t=1"]
        assert ((tmp_path / "loud" / "trajectory.csv").read_bytes()
                == (tmp_path / "quiet" / "trajectory.csv").read_bytes())

    def test_invalid_lambda_names_field(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        cfg.write_text(cfg.read_text().replace('"lambda": 0.05', '"lambda": 1.5'))
        code, _, err = run_cli(["simulate", "--config", str(cfg),
                                "--out", str(tmp_path / "x")], capsys)
        assert code == 2
        assert "lambda" in err

    def test_manifest_digests_match_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run_cli(["simulate", "--config", str(self._config(tmp_path)),
                              "--out", str(out)], capsys)
        assert code == 0
        for name, listed in (("manifest.json", {"trajectory.csv", "run_manifest.json"}),
                             ("run_manifest.json", {"trajectory.csv"})):
            manifest = json.loads((out / name).read_text())
            assert set(manifest["outputs"]) == listed
            for path, digest in manifest["outputs"].items():
                assert digest == sha256_of(out / path)
        assert json.loads((out / "run_manifest.json").read_text())["aborted"] is None

    @pytest.mark.parametrize("field,value", [("T", float("inf")), ("dt", float("nan"))])
    def test_nonfinite_config_exit_2(self, tmp_path, capsys, field, value):
        cfg = self._config(tmp_path, **{field: value})
        out = tmp_path / "x"
        code, _, err = run_cli(["simulate", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert f"{field}: {value} must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("nx", 16.0), ("lambda", "0.05"), ("seed", 1.5), ("nonlinear", "no"),
        ("T", True), ("checkpoint_fields", 1)])
    def test_wrong_type_exit_2(self, tmp_path, capsys, field, value):
        cfg = self._config(tmp_path, **{field: value})
        out = tmp_path / "x"
        code, _, err = run_cli(["simulate", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert "config errors:" in err and f"  - {field}: {value!r} must be" in err
        assert not out.exists()

    @pytest.mark.parametrize("text,problem", [
        ("[1, 2]", "config: the top level must be a JSON object, got list"),
        ('{"lambda": 0.1, "lam": 0.2}', "lambda: given twice, as 'lambda' and 'lam'"),
        ('{"lam": 0.1, "lam": 0.2}', "lam: given twice"),
        ('{"init": "random", "init_spec": "gaussian"}',
         "init: given twice, as 'init' and 'init_spec'"),
    ], ids=["top-level-list", "lambda-twice", "lam-repeated", "init-twice"])
    def test_malformed_config_exit_2(self, tmp_path, capsys, text, problem):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "x"
        code, _, err = run_cli(["simulate", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert "config errors:" in err and f"  - {problem}" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, name):
        cfg = tmp_path / name
        out = tmp_path / "x"
        code, _, err = run_cli(["simulate", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert "config errors:" in err and f"  - config: cannot read '{cfg}': " in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("data,reason", [
        (b"{", "Expecting property name enclosed in double quotes"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
    ], ids=["not-json", "not-utf8"])
    def test_unparsable_config_exit_2(self, tmp_path, capsys, data, reason):
        # both were reported outside the list of config errors, without the file
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        out = tmp_path / "x"
        code, _, err = run_cli(["simulate", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert "config errors:" in err and f"  - config: cannot parse '{cfg}': {reason}" in err
        assert "Traceback" not in err and not out.exists()

    def test_band_narrower_than_the_initial_data_exit_2(self, tmp_path, capsys):
        cfg = self._config(tmp_path, dealias=0.25)
        out = tmp_path / "x"
        code, _, err = run_cli(["simulate", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert "config errors:" in err
        assert "  - init: nonzero coefficients outside the dealias band |kx| < 2," in err
        assert not out.exists()

    @pytest.mark.parametrize("init", ["random", "gaussian"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, init):
        cfg = self._config(tmp_path, seed=-1, init=init)
        out = tmp_path / "x"
        code, _, err = run_cli(["simulate", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert "config errors:" in err and "  - seed: -1 must be nonnegative" in err
        assert not out.exists()

    def test_time_not_whole_steps_exit_2(self, tmp_path, capsys):
        cfg = self._config(tmp_path, T=1.0, dt=0.3, cadence=0.3)
        out = tmp_path / "x"
        code, _, err = run_cli(["simulate", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert "T: 1.0 is not an integer multiple of dt = 0.3" in err
        assert not out.exists()

    def test_nonpositive_eps_exit_2(self, tmp_path, capsys):
        cfg = self._config(tmp_path, eps=0.0)
        out = tmp_path / "x"
        code, _, err = run_cli(["simulate", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert "eps" in err
        assert not out.exists()

    def test_deterministic_digest(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(["simulate", "--config", str(cfg), "--out", str(out)], capsys)
            digests.append(sha256_of(out / "trajectory.csv"))
        assert digests[0] == digests[1]


class TestVerifyCommand:
    def test_single_claim(self, capsys):
        code, text, _ = run_cli(["verify", "one", "--claim", "sin_ratio"], capsys)
        assert code == 0
        payload = json.loads(text)
        assert payload["verdict"] == "PASS"

    def test_seed_option_reaches_claim(self, capsys):
        code, text, _ = run_cli(["verify", "one", "--claim", "elem1", "--seed", "3"], capsys)
        assert code == 0

        def as_json(res):
            return json.loads(json.dumps(res.to_dict(), default=float))

        assert json.loads(text) == as_json(verify.check_elem1(seed=3))
        assert json.loads(text) != as_json(verify.check_elem1(seed=0))

    def test_unknown_claim_exit_2(self, capsys):
        code, _, err = run_cli(["verify", "one", "--claim", "bogus"], capsys)
        assert code == 2
        assert "elem1" in err  # the claim list is printed


@pytest.mark.parametrize("value,text", [
    (0.1, "0.10000000000000001"), (2 / 3, "0.66666666666666663"), (3, "3"),
    ("kn1L", "kn1L"), (float("nan"), "nan")])
def test_format_value_17_digits(value, text):
    assert mhdlab.format_value(value) == text
    if isinstance(value, float) and value == value:
        assert float(text) == value


def test_the_package_loads_no_scipy():
    # scipy is a test dependency only: importing the command line, and with it
    # every module of the package, loads no scipy module
    code = ("import sys, mhdlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(mhdlab.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[]\n"
