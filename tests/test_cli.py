"""Tests for the command-line interface."""

import hashlib
import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner

from mimolink import (
    AccuracyError,
    Receiver,
    SystemConfig,
    __version__,
    db_to_linear,
    rate_ceiling,
    rate_closed_form,
    sinr_cdf,
)
from mimolink import cli, simulate
from mimolink.cli import main
from mimolink.simulate import (
    RandomStream,
    empirical_nmse,
    empirical_outage,
    empirical_rate,
)
from mimolink.training import optimize_tp_exact

from _util import run_capped


def _run(args):
    return CliRunner().invoke(main, args)


def _read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestNmseCommand:
    def test_basic_run(self, tmp_path):
        res = _run([
            "nmse", "--nt", "4", "--nr", "4", "--t", "100", "--tp", "4",
            "--delta", "0", "--delta", "0.1",
            "--snr-db-min", "0", "--snr-db-max", "10", "--snr-db-step", "5",
            "--trials", "512", "--seed", "7", "--out", str(tmp_path),
        ])
        assert res.exit_code == 0, res.output
        header, rows = _read_csv(tmp_path / "nmse.csv")
        assert header == [
            "snr_dB", "delta", "nmse_analytic", "nmse_floor", "nmse_empirical",
        ]
        assert len(rows) == 3 * 2  # snr grid x delta list
        # delta=0 rows report a zero floor
        d0 = [r for r in rows if float(r[1]) == 0.0]
        assert all(float(r[3]) == 0.0 for r in d0)
        manifest = json.loads((tmp_path / "nmse.manifest.json").read_text())
        assert manifest["subcommand"] == "nmse"
        assert "nmse.csv" in manifest["files"]

    def test_vanishing_delta_has_a_zero_floor(self, tmp_path):
        # delta = 1e-200 squares to 0 in doubles: ideal hardware, floor 0.
        res = _run([
            "nmse", "--delta", "1e-200", "--snr-db-min", "10", "--snr-db-max", "10",
            "--trials", "64", "--out", str(tmp_path),
        ])
        assert res.exit_code == 0, res.output
        _, rows = _read_csv(tmp_path / "nmse.csv")
        assert [float(r[3]) for r in rows] == [0.0]
        assert all(math.isfinite(float(c)) for c in rows[0])

    def test_seventeen_digit_round_trip(self, tmp_path):
        res = _run([
            "nmse", "--nt", "4", "--nr", "4", "--t", "100", "--tp", "4",
            "--delta", "0.1", "--snr-db-min", "10", "--snr-db-max", "10",
            "--snr-db-step", "2", "--trials", "256", "--seed", "3",
            "--out", str(tmp_path),
        ])
        assert res.exit_code == 0, res.output
        _, rows = _read_csv(tmp_path / "nmse.csv")
        from mimolink import derive_params

        cfg = SystemConfig(nt=4, nr=4, t=100, tp=4, rho=db_to_linear(10), delta=0.1)
        # %.17g serialization must reparse to the exact double.
        assert float(rows[0][2]) == derive_params(cfg).sigma2_err


class TestOutageCommand:
    def test_default_configs_cover_both_arrays(self, tmp_path):
        res = _run([
            "outage", "--snr-db", "10", "--delta", "0.1",
            "--threshold-db-min", "0", "--threshold-db-max", "10",
            "--threshold-db-step", "5", "--trials", "512", "--seed", "5",
            "--out", str(tmp_path),
        ])
        assert res.exit_code == 0, res.output
        _, rows = _read_csv(tmp_path / "outage.csv")
        pairs = {(r[0], r[1]) for r in rows}
        assert pairs == {("5", "5"), ("5", "30")}
        # all three receivers by default
        assert {r[3] for r in rows} == {"zf", "mrc", "mmse"}

    def test_explicit_config_parsing(self, tmp_path):
        res = _run([
            "outage", "--config", "4x6", "--snr-db", "10", "--delta", "0.05",
            "--threshold-db-min", "0", "--threshold-db-max", "0",
            "--threshold-db-step", "1", "--trials", "256", "--seed", "5",
            "--receiver", "zf", "--out", str(tmp_path),
        ])
        assert res.exit_code == 0, res.output
        _, rows = _read_csv(tmp_path / "outage.csv")
        assert {(r[0], r[1]) for r in rows} == {("4", "6")}

    def test_malformed_config_rejected(self, tmp_path):
        res = _run([
            "outage", "--config", "4by6", "--snr-db", "10", "--delta", "0.05",
            "--trials", "64", "--seed", "5", "--out", str(tmp_path),
        ])
        assert res.exit_code == 2


class TestRatesCommand:
    def test_optimized_tp_and_ceiling_columns(self, tmp_path):
        res = _run([
            "rates", "--nt", "2", "--nr", "2", "--t", "40",
            "--delta", "0", "--delta", "0.1",
            "--snr-db-min", "10", "--snr-db-max", "10", "--snr-db-step", "2",
            "--trials", "512", "--seed", "11", "--receiver", "mmse",
            "--out", str(tmp_path),
        ])
        assert res.exit_code == 0, res.output
        header, rows = _read_csv(tmp_path / "rates.csv")
        assert header == [
            "snr_dB", "receiver", "delta", "rate_analytic", "rate_empirical",
            "rate_ceiling", "tp_star",
        ]
        by_delta = {float(r[2]): r for r in rows}
        # delta=0 has no ceiling -> empty cell; delta>0 has one
        assert by_delta[0.0][5] == ""
        assert float(by_delta[0.1][5]) > 0
        # tp_star column matches a direct optimizer call
        cfg = SystemConfig(nt=2, nr=2, t=40, tp=2, rho=db_to_linear(10), delta=0.1)
        assert int(by_delta[0.1][6]) == optimize_tp_exact(cfg, Receiver.MMSE).tp_star

    def test_fixed_tp_respected(self, tmp_path):
        res = _run([
            "rates", "--nt", "2", "--nr", "2", "--t", "40", "--tp", "8",
            "--delta", "0.1", "--snr-db-min", "5", "--snr-db-max", "5",
            "--snr-db-step", "1", "--trials", "256", "--seed", "2",
            "--receiver", "zf", "--out", str(tmp_path),
        ])
        assert res.exit_code == 0, res.output
        _, rows = _read_csv(tmp_path / "rates.csv")
        assert all(r[6] == "8" for r in rows)

    def test_vanishing_delta_leaves_the_ceiling_empty(self, tmp_path):
        # rate_ceiling has no value where delta**2 == 0 in doubles, and the
        # CLI leaves the cell empty on exactly that test.
        res = _run([
            "rates", "--delta", "1e-200", "--tp", "8", "--snr-db-min", "10",
            "--snr-db-max", "10", "--trials", "64", "--out", str(tmp_path),
        ])
        assert res.exit_code == 0, res.output
        _, rows = _read_csv(tmp_path / "rates.csv")
        assert len(rows) == 3
        for row in rows:
            assert row[5] == ""
            assert all(math.isfinite(float(c)) for i, c in enumerate(row)
                       if i not in (1, 5))

    def test_json_output_with_null_ceiling(self, tmp_path):
        res = _run([
            "rates", "--nt", "2", "--nr", "2", "--t", "40", "--tp", "4",
            "--delta", "0", "--snr-db-min", "0", "--snr-db-max", "0",
            "--snr-db-step", "1", "--trials", "256", "--seed", "2",
            "--receiver", "mrc", "--format", "json", "--out", str(tmp_path),
        ])
        assert res.exit_code == 0, res.output
        obj = json.loads((tmp_path / "rates.json").read_text())
        assert obj["rows"][0]["rate_ceiling"] is None
        assert obj["rows"][0]["receiver"] == "mrc"


class TestOptTpCommand:
    def test_matches_library(self, tmp_path):
        res = _run([
            "opt-tp", "--nt", "4", "--nr", "4", "--t", "60", "--delta", "0.1",
            "--snr-db-min", "10", "--snr-db-max", "20", "--snr-db-step", "10",
            "--receiver", "mmse", "--out", str(tmp_path),
        ])
        assert res.exit_code == 0, res.output
        header, rows = _read_csv(tmp_path / "opt_tp.csv")
        assert header == ["snr_dB", "receiver", "delta", "tp_star"]
        for row in rows:
            cfg = SystemConfig(
                nt=4, nr=4, t=60, tp=4,
                rho=db_to_linear(float(row[0])), delta=0.1,
            )
            assert int(row[3]) == optimize_tp_exact(cfg, Receiver.MMSE).tp_star


class TestAsymptoticCommand:
    def test_tp_mode_only_emits_tp_table(self, tmp_path):
        res = _run([
            "asymptotic", "--mode", "tp", "--config", "4x16", "--t", "200",
            "--delta", "0.1", "--snr-db-min", "10", "--snr-db-max", "10",
            "--snr-db-step", "2", "--seed", "1", "--receiver", "mmse",
            "--out", str(tmp_path),
        ])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "asymptotic_tp.csv").exists()
        assert not (tmp_path / "asymptotic_convergence.csv").exists()
        header, rows = _read_csv(tmp_path / "asymptotic_tp.csv")
        assert header == [
            "nt", "nr", "snr_dB", "receiver", "delta", "tp_star_asymptotic",
        ]
        assert rows[0][:2] == ["4", "16"]

    def test_convergence_mode(self, tmp_path):
        res = _run([
            "asymptotic", "--mode", "convergence", "--config", "4x8",
            "--t", "100", "--delta", "0", "--snr-db-min", "10",
            "--snr-db-max", "10", "--snr-db-step", "2", "--trials", "1024",
            "--seed", "4", "--receiver", "mmse", "--out", str(tmp_path),
        ])
        assert res.exit_code == 0, res.output
        _, rows = _read_csv(tmp_path / "asymptotic_convergence.csv")
        # det equivalent and a 1024-trial empirical mean land close even at
        # this small size
        assert float(rows[0][7]) < 0.1


class TestReproducibilityAndVerify:
    def _fast_nmse(self, out):
        return [
            "nmse", "--nt", "4", "--nr", "4", "--t", "100", "--tp", "4",
            "--delta", "0.1", "--snr-db-min", "0", "--snr-db-max", "4",
            "--snr-db-step", "2", "--trials", "512", "--seed", "42",
            "--out", str(out),
        ]

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run(self._fast_nmse(a)).exit_code == 0
        assert _run(self._fast_nmse(b)).exit_code == 0
        assert (a / "nmse.csv").read_bytes() == (b / "nmse.csv").read_bytes()

    def test_verify_clean(self, tmp_path):
        assert _run(self._fast_nmse(tmp_path)).exit_code == 0
        res = _run(["verify", str(tmp_path / "nmse.manifest.json")])
        assert res.exit_code == 0, res.output
        assert "byte-identical" in res.output

    def test_verify_detects_drift(self, tmp_path):
        assert _run(self._fast_nmse(tmp_path)).exit_code == 0
        path = tmp_path / "nmse.csv"
        path.write_text(path.read_text().replace("0.1", "0.2", 1))
        res = _run(["verify", str(tmp_path / "nmse.manifest.json")])
        assert res.exit_code == 1
        assert "DRIFT" in res.output

    def test_verify_detects_manifest_mismatch(self, tmp_path):
        assert _run(self._fast_nmse(tmp_path)).exit_code == 0
        mpath = tmp_path / "nmse.manifest.json"
        manifest = json.loads(mpath.read_text())
        name = next(iter(manifest["files"]))
        manifest["files"][name] = "0" * 64
        mpath.write_text(json.dumps(manifest))
        res = _run(["verify", str(mpath)])
        assert res.exit_code == 1
        assert "MISMATCH" in res.output
        assert "manifest from mimolink" not in res.output

    def test_verify_names_both_versions_on_mismatch(self, tmp_path):
        # A manifest written by another version whose bytes no longer
        # reproduce: the report says which versions disagree.
        assert _run(self._fast_nmse(tmp_path)).exit_code == 0
        mpath = tmp_path / "nmse.manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["version"] = "0.1.0"
        manifest["files"]["nmse.csv"] = "0" * 64
        mpath.write_text(json.dumps(manifest))
        res = _run(["verify", str(mpath)])
        assert res.exit_code == 1
        assert "MISMATCH  nmse.csv" in res.output
        assert f"manifest from mimolink 0.1.0, running {__version__}" in res.output
        assert __version__ != "0.1.0"


    def test_verify_names_missing_params(self, tmp_path):
        assert _run(self._fast_nmse(tmp_path)).exit_code == 0
        mpath = tmp_path / "nmse.manifest.json"
        manifest = json.loads(mpath.read_text())
        del manifest["params"]["seed"], manifest["params"]["t"]
        mpath.write_text(json.dumps(manifest))
        res = _run(["verify", str(mpath)])
        assert res.exit_code == 2, res.output
        assert "manifest params lack seed, t for nmse" in res.output
        assert "Traceback" not in res.output

    def test_verify_infeasible_params_is_usage_error(self, tmp_path):
        # fig4's t = 3 leaves no training length nt <= tp < t.
        res = _run(["opt-tp", "--preset", "fig4", "--snr-db-min", "0",
                    "--snr-db-max", "0", "--receiver", "zf", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        mpath = tmp_path / "opt_tp.manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["params"]["t"] = 3
        mpath.write_text(json.dumps(manifest))
        res = _run(["verify", str(mpath)])
        assert res.exit_code == 2, res.output
        assert "training length must satisfy nt <= tp < t" in res.output
        assert "Traceback" not in res.output

    def test_verify_non_numeric_delta_is_usage_error(self, tmp_path):
        assert _run(self._fast_nmse(tmp_path)).exit_code == 0
        mpath = tmp_path / "nmse.manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["params"]["delta"] = ["high"]
        mpath.write_text(json.dumps(manifest))
        res = _run(["verify", str(mpath)])
        assert res.exit_code == 2, res.output
        assert "manifest params:" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("text, message", [
        ("{not json", "manifest is not JSON"),
        ("[1, 2]", "manifest is not a JSON object"),
        ('{"subcommand": "nmse", "params": [], "files": {}}',
         "manifest has no params object"),
    ], ids=["not-json", "array", "params-list"])
    def test_verify_rejects_a_malformed_document(self, tmp_path, text, message):
        mpath = tmp_path / "nmse.manifest.json"
        mpath.write_text(text)
        res = _run(["verify", str(mpath)])
        assert res.exit_code == 2, res.output
        assert message in res.output

    @pytest.mark.parametrize("files", [None, ["nmse.csv"], {"nmse.csv": 5}],
                             ids=["missing", "list", "non-string-digest"])
    def test_verify_rejects_bad_files_before_replay(self, tmp_path, monkeypatch,
                                                    files):
        assert _run(self._fast_nmse(tmp_path)).exit_code == 0
        mpath = tmp_path / "nmse.manifest.json"
        manifest = json.loads(mpath.read_text())
        if files is None:
            del manifest["files"]
        else:
            manifest["files"] = files
        mpath.write_text(json.dumps(manifest))

        def replay(subcommand, params):
            raise AssertionError("verify replayed a manifest it should refuse")

        monkeypatch.setattr(cli, "_tables", replay)
        res = _run(["verify", str(mpath)])
        assert res.exit_code == 2, res.output
        assert "manifest has no files object of digest strings" in res.output


class TestGoldenDigests:
    """SHA-256 of output files: fig6 as written before the asymptotic scan
    was vectorized, ``opt-tp`` and the ``both`` run's tp table as written
    before the CLI's sweeps shared one runner.  The analytic cells of the
    outage and both rates tables are as computed since the quadrature runs
    on the Gauss-Kronrod 20/41 pair (version 0.4.0).  Every Monte Carlo
    cell is as drawn since every point of an antenna configuration reads
    that configuration's stream, ``RandomStream(seed, c)`` for its index
    ``c`` in the table, trial by trial (version 0.7.0).  The digests of
    ``nmse``, ``rates``, ``fig5``, the ``both`` run and
    ``test_rates_fixed_tp`` date from version 0.9.0, where the NMSE and
    rate reducers fold their per-trial sums in trial order, which moved
    their empirical cells (and ``rel_deviation``) at rounding level.
    A change that alters a data byte must update these on purpose; a rerun
    of one build cannot catch that.  The digests cover Monte Carlo cells,
    so they also pin this platform's numpy and BLAS rounding."""

    @staticmethod
    def _digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    _RUNS = [
        (["nmse", "--preset", "fig1", "--trials", "64"],
         {"nmse.csv": "99d22687f32c3a8e23fcb6057a42ce3c8167cc62dd9cb923f0804943682de045"}),
        (["outage", "--preset", "fig2", "--trials", "256",
          "--threshold-db-step", "5"],
         {"outage.csv": "e08d1f3146f040113d07f0925e35e7462777147e5532112b9d33b8297d3502b9"}),
        (["rates", "--preset", "fig3", "--trials", "64", "--snr-db-step", "10"],
         {"rates.csv": "596c9a0ab42f3ada99c98c12e6dc822916786135f430b366ad506442b68e196a"}),
        (["opt-tp", "--preset", "fig4"],
         {"opt_tp.csv": "4d181bac316ac3e31d4f09b417ef5f098cabd04b282288a14fadc920dbfb5803"}),
        (["asymptotic", "--preset", "fig5", "--trials", "64"],
         {"asymptotic_convergence.csv":
          "c442856b6361d0481729355f420ea3d9fee68a0d8bf80782ab5898a76d0facd9"}),
        (["asymptotic", "--mode", "both", "--config", "4x16", "--t", "100",
          "--trials", "64", "--snr-db-step", "20"],
         {"asymptotic_convergence.csv":
          "0a9b1d4f43a4760d5d46768211bf0229f3e333acb39c4815591324697da957c5",
          "asymptotic_tp.csv":
          "4c89182f8c56f0db993769220cb94f70873ee26a8aa7f7ba52ea3b5ad27a57c9"}),
    ]
    _IDS = ["nmse", "outage", "rates", "opt-tp", "fig5", "both"]

    @pytest.mark.parametrize("args, digests", _RUNS, ids=_IDS)
    def test_subcommand(self, tmp_path, args, digests):
        # opt-tp draws nothing random and takes no --seed.
        seed = [] if args[0] == "opt-tp" else ["--seed", "777"]
        res = _run([*args, *seed, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        written = {p.name: self._digest(p) for p in tmp_path.glob("*.csv")}
        assert written == digests

    @pytest.mark.parametrize("args, digests", _RUNS, ids=_IDS)
    def test_chunk_budget_moves_no_digest(self, tmp_path, monkeypatch, args, digests):
        # Chunks bound memory only: with every simulator call split into
        # chunks of a few trials, every table keeps its bytes.
        monkeypatch.setattr(simulate, "_CHUNK_ELEMENTS", 256)
        self.test_subcommand(tmp_path, args, digests)

    def test_asymptotic_fig6(self, tmp_path):
        res = _run(["asymptotic", "--preset", "fig6", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert self._digest(tmp_path / "asymptotic_tp.csv") == (
            "f085d66c85096afd41130693693927da3750e17f165234252e827ffc701fca41"
        )

    def test_rates_fixed_tp(self, tmp_path, monkeypatch):
        calls = []

        def counting_ceiling(receiver, cfg):
            calls.append((receiver, cfg.delta, cfg.tp))
            return rate_ceiling(receiver, cfg)

        monkeypatch.setattr(cli, "rate_ceiling", counting_ceiling)
        res = _run([
            "rates", "--tp", "8", "--trials", "64", "--snr-db-step", "25",
            "--seed", "777", "--out", str(tmp_path),
        ])
        assert res.exit_code == 0, res.output
        assert self._digest(tmp_path / "rates.csv") == (
            "4ca4d7fa9ace04a5269aa912123ac8a72d62822fe5a2e26950a7cdbebdd258e9"
        )
        # The ceiling is rho-independent: one evaluation per (receiver,
        # delta > 0), not one per SNR.
        assert sorted(calls) == sorted(
            (r, d, 8) for r in Receiver for d in (0.05, 0.15)
        )


class TestAnalyticColumns:
    """The analytic cells the CLI writes are the library's values, bit for
    bit, as the benchmark's sweep checks them."""

    def test_rates_fixed_tp(self, tmp_path):
        res = _run(["rates", "--tp", "8", "--trials", "64", "--snr-db-step", "25",
                    "--seed", "777", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        header, rows = _read_csv(tmp_path / "rates.csv")
        col = {name: i for i, name in enumerate(header)}
        assert len(rows) == 27
        for row in rows:
            receiver, delta = Receiver(row[col["receiver"]]), float(row[col["delta"]])
            cfg = SystemConfig(nt=4, nr=4, t=200, tp=8, delta=delta,
                               rho=db_to_linear(float(row[col["snr_dB"]])))
            assert float(row[col["rate_analytic"]]) == rate_closed_form(receiver, cfg)
            if delta > 0:
                assert float(row[col["rate_ceiling"]]) == rate_ceiling(receiver, cfg)

    def test_outage_fig2_grid(self, tmp_path, monkeypatch):
        calls = []

        def counting_cdf(receiver, cfg, gamma):
            calls.append(receiver)
            return sinr_cdf(receiver, cfg, gamma)

        monkeypatch.setattr(cli, "sinr_cdf", counting_cdf)
        res = _run(["outage", "--preset", "fig2", "--trials", "64", "--seed", "777",
                    "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        header, rows = _read_csv(tmp_path / "outage.csv")
        col = {name: i for i, name in enumerate(header)}
        assert len(rows) == 2424
        # One vectorized call per (point, receiver): 2 configs x 4 deltas x 3.
        assert len(calls) == 24
        for row in rows:
            nt, nr = int(row[col["nt"]]), int(row[col["nr"]])
            cfg = SystemConfig(nt=nt, nr=nr, t=2 * nt + 2, tp=nt,
                               rho=db_to_linear(30.0), delta=float(row[col["delta"]]))
            want = sinr_cdf(Receiver(row[col["receiver"]]), cfg,
                            float(row[col["threshold"]]))
            assert float(row[col["outage_analytic"]]) == want


class TestSharedDraw:
    """Every point of a rates table draws from its configuration's stream,
    ``RandomStream(seed, 0)``: the receivers at a point share one
    simulation per distinct training length, and the points see common
    random numbers."""

    @staticmethod
    def _counting(monkeypatch):
        """Record ``(tp, receivers, stream)`` of every simulated config."""
        calls = []

        def counting(cfgs, receivers, trials, rs):
            calls.extend((cfg.tp, tuple(receivers), rs) for cfg in cfgs)
            return empirical_rate(cfgs, receivers, trials, rs)

        monkeypatch.setattr(cli, "empirical_rate", counting)
        return calls

    @staticmethod
    def _rows_by_point(path):
        """``{(snr_dB, delta): rows}`` in point order (dicts keep it)."""
        header, rows = _read_csv(path)
        col = {name: i for i, name in enumerate(header)}
        points = {}
        for row in rows:
            key = (float(row[col["snr_dB"]]), float(row[col["delta"]]))
            points.setdefault(key, []).append(
                {name: row[i] for name, i in col.items()})
        return points

    def test_fixed_tp_one_simulation_per_point(self, tmp_path, monkeypatch):
        calls = self._counting(monkeypatch)
        res = _run(["rates", "--tp", "8", "--trials", "64", "--snr-db-step", "25",
                    "--seed", "777", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        # 3 SNRs x 3 deltas, each simulated once for every receiver.
        assert calls == [(8, tuple(Receiver), RandomStream(777, 0))] * 9
        points = self._rows_by_point(tmp_path / "rates.csv")
        assert len(points) == 9
        for (snr_db, delta), rows in points.items():
            cfg = SystemConfig(nt=4, nr=4, t=200, tp=8, rho=db_to_linear(snr_db),
                               delta=delta)
            want = empirical_rate(cfg, tuple(Receiver), 64, RandomStream(777, 0))
            assert [r["receiver"] for r in rows] == ["zf", "mrc", "mmse"]
            for row in rows:
                assert float(row["rate_empirical"]) == want[Receiver(row["receiver"])]

    def test_optimized_tp_groups_share_the_configuration_stream(self, tmp_path,
                                                                monkeypatch):
        # At delta = 0, 30 dB the three tp* differ (11, 4, 10); at 40 dB ZF
        # and MMSE share tp* = 9, so that point makes two simulations.
        calls = self._counting(monkeypatch)
        res = _run(["rates", "--preset", "fig3", "--trials", "64",
                    "--snr-db-min", "30", "--snr-db-max", "40",
                    "--snr-db-step", "10", "--delta", "0", "--seed", "777",
                    "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        points = self._rows_by_point(tmp_path / "rates.csv")
        tps = [[int(r["tp_star"]) for r in rows] for rows in points.values()]
        assert tps == [[11, 4, 10], [9, 4, 9]]
        zf, mrc, mmse = Receiver
        assert {rs for _, _, rs in calls} == {RandomStream(777, 0)}
        assert sorted(c[:2] for c in calls) == sorted(
            [(11, (zf,)), (4, (mrc,)), (10, (mmse,)), (9, (zf, mmse)), (4, (mrc,))])
        for (snr_db, delta), rows in points.items():
            for row in rows:
                receiver = Receiver(row["receiver"])
                cfg = SystemConfig(nt=4, nr=4, t=200, tp=int(row["tp_star"]),
                                   rho=db_to_linear(snr_db), delta=delta)
                want = empirical_rate(cfg, (receiver,), 64, RandomStream(777, 0))
                assert float(row["rate_empirical"]) == want[receiver]


class TestConfigurationStreams:
    """Every Monte Carlo point draws from ``RandomStream(seed, c)``, ``c``
    its antenna configuration's index in the table, so no byte depends on
    how the points are cut into pool tasks."""

    _RUNS = [
        ["nmse", "--preset", "fig1", "--trials", "64", "--snr-db-step", "10"],
        ["rates", "--tp", "8", "--trials", "64", "--snr-db-step", "25"],
        ["rates", "--trials", "64", "--snr-db-min", "20", "--snr-db-step", "10",
         "--delta", "0", "--delta", "0.15"],
        ["outage", "--preset", "fig2", "--trials", "64", "--threshold-db-step", "10"],
        ["asymptotic", "--mode", "both", "--config", "2x8", "--config", "4x16",
         "--t", "40", "--trials", "64", "--snr-db-step", "20"],
    ]

    @staticmethod
    def _written(out, args):
        res = _run([*args, "--seed", "777", "--out", str(out)])
        assert res.exit_code == 0, res.output
        return {p.name: p.read_bytes() for p in out.glob("*.csv")}

    @pytest.mark.parametrize("args", _RUNS,
                             ids=["nmse", "rates-tp", "rates-opt", "outage", "both"])
    def test_bytes_do_not_depend_on_the_pool_or_the_slices(self, tmp_path,
                                                           monkeypatch, args):
        want = self._written(tmp_path / "ref", args)
        for cpus in (1, 2, 3, 8):  # 3: gcd 1 with two configurations, cut in 3 each
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
            assert self._written(tmp_path / f"cpus{cpus}", args) == want, cpus
        monkeypatch.setattr(cli, "_runs",
                            lambda points, tasks: [(c, [point]) for c, point in points])
        assert self._written(tmp_path / "one", args) == want

    def test_runs_cut_one_configuration_each(self):
        sizes = [7, 1, 12]
        points = [(c, k) for c, n in enumerate(sizes) for k in range(n)]
        for tasks in (1, 2, 3, 4, 6, 32):
            runs = cli._runs(points, tasks)
            assert [(c, k) for c, run in runs for k in run] == points
            assert all(run for _, run in runs)
            for c, n in enumerate(sizes):
                mine = [run for c_run, run in runs if c_run == c]
                assert len(mine) == min(tasks // math.gcd(tasks, len(sizes)), n), (tasks, c)
                assert max(map(len, mine)) - min(map(len, mine)) <= 1, (tasks, c)

    def test_nmse_cells_are_stream_zero_calls(self, tmp_path):
        res = _run(["nmse", "--preset", "fig1", "--trials", "64", "--snr-db-step",
                    "10", "--seed", "777", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        header, rows = _read_csv(tmp_path / "nmse.csv")
        col = {name: i for i, name in enumerate(header)}
        assert len(rows) == 32
        for row in rows:
            cfg = SystemConfig(nt=4, nr=4, t=100, tp=4, delta=float(row[col["delta"]]),
                               rho=db_to_linear(float(row[col["snr_dB"]])))
            want = empirical_nmse(cfg, 64, RandomStream(777, 0))
            assert float(row[col["nmse_empirical"]]) == want

    def test_config_index_picks_the_stream(self, tmp_path):
        # outage and the convergence table: configuration c reads stream c.
        res = _run(["asymptotic", "--config", "2x8", "--config", "4x16", "--t", "40",
                    "--trials", "64", "--snr-db-step", "40", "--delta", "0.1",
                    "--receiver", "mmse", "--seed", "777", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        header, rows = _read_csv(tmp_path / "asymptotic_convergence.csv")
        col = {name: i for i, name in enumerate(header)}
        assert len(rows) == 2 * 2
        for row in rows:
            nt, nr = int(row[col["nt"]]), int(row[col["nr"]])
            cfg = SystemConfig(nt=nt, nr=nr, t=40, tp=nt, delta=0.1,
                               rho=db_to_linear(float(row[col["snr_dB"]])))
            stream = RandomStream(777, [2, 4].index(nt))
            want = empirical_rate(cfg, (Receiver.MMSE,), 64, stream)[Receiver.MMSE]
            assert float(row[col["rate_empirical"]]) == want
        res = _run(["outage", "--config", "2x4", "--config", "3x9", "--delta", "0.1",
                    "--threshold-db-min", "0", "--threshold-db-max", "0",
                    "--trials", "64", "--receiver", "mmse", "--seed", "777",
                    "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        header, rows = _read_csv(tmp_path / "outage.csv")
        col = {name: i for i, name in enumerate(header)}
        assert len(rows) == 2
        for c, row in enumerate(rows):
            nt, nr = int(row[col["nt"]]), int(row[col["nr"]])
            cfg = SystemConfig(nt=nt, nr=nr, t=2 * nt + 2, tp=nt, delta=0.1,
                               rho=db_to_linear(30.0))
            want = empirical_outage(cfg, (Receiver.MMSE,), 1.0, 64,
                                    RandomStream(777, c))[Receiver.MMSE]
            assert float(row[col["outage_empirical"]]) == want


class TestPresets:
    def test_preset_fills_defaults(self, tmp_path):
        # Down-scaled trial count keeps the preset runnable in a test;
        # everything else comes from the preset table.
        res = _run([
            "nmse", "--preset", "fig1", "--trials", "128",
            "--snr-db-min", "0", "--snr-db-max", "4", "--snr-db-step", "2",
            "--out", str(tmp_path),
        ])
        assert res.exit_code == 0, res.output
        _, rows = _read_csv(tmp_path / "nmse.csv")
        # fig1 sweeps four impairment levels (cells carry 17 significant
        # digits, so compare as parsed floats)
        assert {float(r[1]) for r in rows} == {0.0, 0.05, 0.1, 0.15}

    def test_asymptotic_defaults_to_fig5(self, tmp_path):
        # Without --preset, asymptotic starts from fig5: convergence only.
        res = _run([
            "asymptotic", "--config", "2x8", "--t", "40", "--snr-db-step", "40",
            "--trials", "64", "--out", str(tmp_path),
        ])
        assert res.exit_code == 0, res.output
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
            "asymptotic_convergence.csv"]
        manifest = json.loads((tmp_path / "asymptotic.manifest.json").read_text())
        fig5 = cli.PRESETS["fig5"]["params"]
        assert manifest["params"]["mode"] == fig5["mode"]
        assert manifest["params"]["delta"] == fig5["delta"]

    def test_preset_subcommand_mismatch(self, tmp_path):
        res = _run(["nmse", "--preset", "fig2", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "preset" in res.output.lower()

    def test_plot_script_compiles(self, tmp_path):
        res = _run(self_args := [
            "nmse", "--nt", "2", "--nr", "2", "--t", "20", "--tp", "2",
            "--delta", "0.1", "--snr-db-min", "0", "--snr-db-max", "0",
            "--snr-db-step", "1", "--trials", "64", "--seed", "1",
            "--emit-plot-script", "--out", str(tmp_path),
        ])
        assert res.exit_code == 0, res.output
        script = (tmp_path / "plot_nmse.py").read_text()
        compile(script, "plot_nmse.py", "exec")

    def test_plot_script_with_json_is_usage_error(self, tmp_path):
        res = _run(["nmse", "--format", "json", "--emit-plot-script",
                    "--trials", "64", "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "--emit-plot-script" in res.output
        assert not list(tmp_path.iterdir())


class TestFlags:
    """A subcommand takes exactly the flags of its default preset's keys."""

    class _Reads(dict):
        """A params dict that records every key the sweeps read."""

        def __getitem__(self, key):
            self.read.add(key)
            return super().__getitem__(key)

    @staticmethod
    def _default_keys(name):
        return set(cli.PRESETS[cli._SUBCOMMANDS[name]["preset"]]["params"])

    @pytest.mark.parametrize("name", sorted(cli._SUBCOMMANDS))
    def test_flags_are_the_default_preset_keys(self, name):
        keys = self._default_keys(name)
        want = {"--config" if k == "configs" else "--" + k.replace("_", "-")
                for k in keys}
        want |= {"--format", "--out", "--preset", "--emit-plot-script"}
        assert {opt for p in main.commands[name].params for opt in p.opts} == want

    def test_presets_fit_their_subcommand(self):
        for name, preset in cli.PRESETS.items():
            assert set(preset["params"]) <= self._default_keys(preset["subcommand"]), name

    @pytest.mark.parametrize("name, point", [
        ("nmse", {"snr_db_max": -10.0, "delta": [0.1], "trials": 64}),
        ("outage", {"configs": [[2, 4]], "delta": [0.1], "threshold_db_max": -10.0,
                    "trials": 64, "receiver": "mmse"}),
        ("rates", {"snr_db_max": -10.0, "delta": [0.1], "trials": 64,
                   "receiver": "mmse"}),
        ("opt-tp", {"snr_db_max": -10.0, "delta": [0.1], "receiver": "mmse"}),
        ("asymptotic", {"mode": "both", "configs": [[2, 8]], "t": 40,
                        "snr_db_max": -10.0, "delta": [0.1], "trials": 64,
                        "receiver": "mmse"}),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_sweeps_read_every_default_preset_key(self, name, point):
        params = self._Reads(cli.PRESETS[cli._SUBCOMMANDS[name]["preset"]]["params"])
        params.update(point)
        params.read = set()
        tables = cli._tables(name, params)
        assert tables and all(len(rows) == 1 for _, rows in tables.values())
        assert params.read == self._default_keys(name)

    @pytest.mark.parametrize("args", [
        ["nmse", "--receiver", "zf"],
        ["outage", "--t", "20"],
        ["outage", "--snr-db-min", "0"],
        ["outage", "--snr-db-max", "10"],
        ["outage", "--snr-db-step", "5"],
        ["opt-tp", "--tp", "8"],
        ["opt-tp", "--trials", "64"],
        ["opt-tp", "--seed", "1"],
        ["outage", "--nt", "2"],
        ["outage", "--nr", "4"],
        ["asymptotic", "--nt", "8"],
        ["asymptotic", "--nr", "16"],
    ], ids=lambda args: " ".join(args[:2]))
    def test_dropped_flag_is_usage_error(self, tmp_path, args):
        res = _run([*args, "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "no such option" in res.output.lower()
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args, dropped", [
        (["nmse", "--snr-db-step", "35", "--delta", "0.1", "--trials", "64"],
         {"receiver": "zf"}),
        (["outage", "--config", "2x4", "--delta", "0.1", "--threshold-db-step", "25",
          "--trials", "64"],
         {"t": 20, "snr_db_min": 0.0, "snr_db_max": 10.0, "snr_db_step": 5.0}),
        (["opt-tp", "--snr-db-step", "25", "--delta", "0.1", "--receiver", "mmse"],
         {"tp": 8, "trials": 64, "seed": 12345}),
    ], ids=["nmse", "outage", "opt-tp"])
    def test_verify_ignores_dropped_keys(self, tmp_path, args, dropped):
        # Manifests written while these flags existed carry their keys.
        assert _run([*args, "--out", str(tmp_path)]).exit_code == 0
        mpath = next(tmp_path.glob("*.manifest.json"))
        manifest = json.loads(mpath.read_text())
        manifest["params"].update(dropped)
        mpath.write_text(json.dumps(manifest))
        res = _run(["verify", str(mpath)])
        assert res.exit_code == 0, res.output


class TestErrorPaths:
    def test_infeasible_tp_is_usage_error(self, tmp_path):
        res = _run([
            "nmse", "--nt", "4", "--nr", "4", "--t", "100", "--tp", "2",
            "--delta", "0", "--snr-db-min", "0", "--snr-db-max", "0",
            "--snr-db-step", "1", "--trials", "64", "--seed", "1",
            "--out", str(tmp_path),
        ])
        assert res.exit_code == 2

    def test_zf_with_nr_below_nt_is_usage_error(self, tmp_path):
        res = _run([
            "rates", "--nt", "4", "--nr", "2", "--t", "50", "--tp", "4",
            "--delta", "0.1", "--snr-db-min", "0", "--snr-db-max", "0",
            "--snr-db-step", "1", "--trials", "64", "--seed", "1",
            "--receiver", "zf", "--out", str(tmp_path),
        ])
        assert res.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["nmse", "--snr-db-max", "inf"],
        ["outage", "--threshold-db-max", "inf"],
        ["nmse", "--snr-db-min", "nan"],
        ["rates", "--snr-db-step", "inf"],
        ["asymptotic", "--snr-db-step", "nan"],
    ], ids=["max-inf", "threshold-inf", "min-nan", "step-inf", "step-nan"])
    def test_non_finite_grid_is_usage_error(self, tmp_path, args):
        res = _run([*args, "--trials", "64", "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "must be finite" in res.output
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ["nmse", "--snr-db-step", "1e-300", "--trials", "64"],
        ["opt-tp", "--snr-db-min", "-1e308", "--snr-db-max", "1e308"],
        ["outage", "--threshold-db-step", "4.9e-5", "--trials", "64"],
    ], ids=["tiny-step", "overflowing-span", "just-over"])
    def test_oversized_grid_is_usage_error(self, tmp_path, args):
        # Refused before a point is built: the grids would take ~7e301
        # points, an overflow to inf, and 1 020 409 points.
        res = _run([*args, "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "points, more than 1000000" in res.output
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ["nmse", "--snr-db-min", "4000", "--snr-db-max", "4000"],
        ["outage", "--snr-db", "3000"],
        ["asymptotic", "--mode", "both", "--config", "2x8", "--t", "40",
         "--snr-db-min", "3000", "--snr-db-max", "3000"],
        ["rates", "--tp", "8", "--snr-db-min", "-3000", "--snr-db-max", "-3000",
         "--delta", "0.1"],
    ], ids=["overflowing-snr", "c0-zero", "c0-zero-both", "c0-inf"])
    def test_extreme_snr_is_usage_error(self, tmp_path, args):
        # 10^(dB/10) overflows, or rho * epsilon under- or overflows so that
        # c0 would be 0 or inf: a usage error naming the cause, no traceback.
        res = _run([*args, "--trials", "64", "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "dB overflows" in res.output or "rho=" in res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output

    def test_grid_at_the_cap_is_built(self):
        grid = cli._grid({"x_min": 0.0, "x_max": 1.0, "x_step": 1.0 / 999_999}, "x")
        assert len(grid) == cli._MAX_GRID_POINTS
        assert grid[0] == 0.0 and grid[-1] == pytest.approx(1.0, rel=1e-12)

    def test_accuracy_error_maps_to_exit_3(self, tmp_path, monkeypatch):
        def boom(subcommand, params):
            raise AccuracyError("quadrature failed to converge")

        monkeypatch.setattr(cli, "_tables", boom)
        res = _run([
            "nmse", "--nt", "4", "--nr", "4", "--t", "100", "--tp", "4",
            "--delta", "0", "--snr-db-min", "0", "--snr-db-max", "0",
            "--snr-db-step", "1", "--trials", "64", "--seed", "1",
            "--out", str(tmp_path),
        ])
        assert res.exit_code == 3
        assert "quadrature failed to converge" in res.output

    def test_runaway_quadrature_maps_to_exit_3(self, tmp_path):
        # At delta = 0 and 700 dB, with the rate integral's seed knots
        # placed for c0 = 1 instead of c0 ~ 1e-70, the bisection would grow
        # until memory ran out; under a 1 GiB cap it stops at the
        # quadrature's node budget, an accuracy failure.
        out = run_capped(
            "from mimolink import analytic\n"
            "seeds = analytic._u_knots\n"
            "analytic._u_knots = lambda k_max, c0, delta: seeds(k_max, 1.0, delta)\n"
            "from mimolink.cli import main\n"
            "main(['opt-tp', '--snr-db-min', '700', '--snr-db-max', '700',\n"
            f"      '--delta', '0', '--out', {str(tmp_path)!r}], prog_name='mimolink')\n",
            cap_gib=1,
        )
        assert out.returncode == 3, out.stderr
        assert "accuracy failure" in out.stderr and "Traceback" not in out.stderr

    def test_version_flag(self):
        res = _run(["--version"])
        assert res.exit_code == 0
        assert "mimolink" in res.output
