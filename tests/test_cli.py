import json

import numpy as np
import pytest

from fsym import cli, design, fitting, simulate
from fsym.cli import main
from fsym.datasets import anes_party_id, data_path, load_table_document
from fsym.tables import TableShape, orbit_structure


@pytest.fixture
def anes_path():
    return str(data_path("anes_party_id.json"))


@pytest.fixture
def symmetric_doc(tmp_path, rng):
    shape = TableShape(3, 3)
    struct = orbit_structure(shape)
    per_orbit = rng.integers(5, 40, size=len(struct.members))
    counts = per_orbit[struct.orbit_id]
    path = tmp_path / "symmetric.json"
    path.write_text(json.dumps({"r": 3, "T": 3, "counts": counts.tolist()}))
    return str(path)


class TestFixture:
    def test_counts_sum_and_order(self):
        table = anes_party_id()
        assert table.n == 1127
        # spot checks in lexicographic order: corners and the wave-2 block
        assert table.counts[0] == 240  # (1,1,1)
        assert table.counts[4] == 23  # (1,2,2)
        assert table.counts[13] == 237  # (2,2,2)
        assert table.counts[26] == 323  # (3,3,3)
        expected = [240, 32, 8, 11, 23, 5, 0, 2, 4,
                    20, 22, 4, 18, 237, 28, 1, 24, 29,
                    4, 0, 5, 0, 28, 16, 7, 36, 323]
        assert table.counts.tolist() == expected

    def test_document_validation(self):
        with pytest.raises(ValueError):
            load_table_document({"r": 3, "T": 3, "counts": [1, 2, 3]})
        with pytest.raises(ValueError):
            load_table_document({"r": 3, "counts": [0] * 27})


class TestFit:
    def test_text_output(self, capsys, anes_path):
        assert main(["fit", "--input", anes_path, "--model", "gs", "--f", "kl"]) == 0
        out = capsys.readouterr().out
        assert "G2 = 15.5" in out
        assert "df = 11" in out
        assert "p = 0.162" in out

    def test_s_model(self, capsys, anes_path):
        assert main(["fit", "--input", anes_path, "--model", "s"]) == 0
        out = capsys.readouterr().out
        assert "G2 = 45.3" in out and "df = 17" in out

    def test_symmetric_table_fits_perfectly(self, capsys, symmetric_doc):
        assert main(["fit", "--input", symmetric_doc, "--model", "ls", "--f", "pearson"]) == 0
        assert "G2 = 0" in capsys.readouterr().out

    def test_score_override_changes_nothing_for_affine_rescaling(self, capsys, anes_path):
        # gs is invariant under affine score changes; the override must parse
        # and reproduce the same statistic
        assert main(["fit", "--input", anes_path, "--model", "gs", "--f", "kl",
                     "--scores", "10,20,30"]) == 0
        assert "G2 = 15.5" in capsys.readouterr().out

    def test_json_round_trip_rescores_identically(self, capsys, anes_path):
        assert main(["fit", "--input", anes_path, "--model", "gs", "--f", "kl", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        nvec = np.array(doc["counts"], dtype=float)
        mhat = np.array(doc["mhat"])
        pos = nvec > 0
        g2 = float(2 * np.sum(nvec[pos] * np.log(nvec[pos] / mhat[pos])))
        assert abs(g2 - doc["g2"]) < 1e-12
        assert doc["df"] == 11
        thetas = {tuple(row["cell"]): row["theta"] for row in doc["potential"]}
        assert thetas[(1, 1, 3)] == pytest.approx(0.0161, abs=5e-4)

    def test_json_of_a_steep_power_link(self, capsys, anes_path):
        docs = {}
        for f in ("kl", "power:2"):
            assert main(["fit", "--input", anes_path, "--model", "gs", "--f", f, "--json"]) == 0
            docs[f] = json.loads(capsys.readouterr().out)
        doc = docs["power:2"]
        assert len(doc["theta_prime"]) == len(docs["kl"]["theta_prime"])
        assert np.all(np.isfinite(doc["theta_prime"]))
        assert len(doc["potential"]) == 27
        assert len(doc["discrepancies"]) == len(docs["kl"]["discrepancies"])

    def test_json_with_an_empty_orbit(self, tmp_path, capsys):
        table = anes_party_id()
        empty = orbit_structure(table.shape).members[1]
        counts = table.counts.copy()
        counts[empty] = 0
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"r": 3, "T": 3, "counts": counts.astype(int).tolist()}))
        assert main(["fit", "--input", str(path), "--model", "gs", "--f", "kl", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(doc["pihat"][i] == 0 for i in empty)
        assert doc["discrepancies"]

    def test_exit_codes(self, tmp_path, anes_path, capsys, monkeypatch):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["fit", "--input", str(bad), "--model", "s"]) == 2
        assert main(["fit", "--input", anes_path, "--model", "nope"]) == 4
        assert main(["fit", "--input", anes_path, "--model", "gs", "--f", "power:x"]) == 4
        with monkeypatch.context() as m:
            m.setattr(fitting, "MAX_ITER", 2)
            assert main(["fit", "--input", anes_path, "--model", "gs", "--f", "pearson"]) == 3
        # one category leaves every moment constraint identically 0
        single = tmp_path / "single.json"
        single.write_text(json.dumps({"r": 1, "T": 3, "counts": [5]}))
        capsys.readouterr()
        assert main(["fit", "--input", str(single), "--model", "me"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "need at least two categories, got r=1" in err
        # two categories leave the gs and els designs rank deficient
        binary = tmp_path / "binary.json"
        binary.write_text(json.dumps({"r": 2, "T": 3, "counts": [9, 4, 3, 5, 2, 6, 4, 11]}))
        capsys.readouterr()
        for argv in (["fit", "--model", "gs"], ["fit", "--model", "els"], ["decompose"]):
            assert main(argv + ["--input", str(binary)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and "rank deficient" in err


class TestDecompose:
    def test_text_table(self, capsys, anes_path):
        assert main(["decompose", "--input", anes_path, "--f", "kl"]) == 0
        out = capsys.readouterr().out
        for token in ("45.3", "15.5", "3.34", "9.89", "17.4"):
            assert token in out

    def test_symmetric_all_zero(self, capsys, symmetric_doc):
        assert main(["decompose", "--input", symmetric_doc, "--f", "kl", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for row in doc["g2_partition"]:
            assert abs(row["g2"]) < 1e-7
        assert abs(doc["wald"]["s"]["w"]) < 1e-8

    def test_power_family(self, capsys, symmetric_doc):
        assert main(["decompose", "--input", symmetric_doc, "--f", "power:0.5"]) == 0
        capsys.readouterr()


class TestSimulate:
    def test_tiny_run_writes_deterministic_output(self, tmp_path, capsys):
        config = {
            "means": [0, 0, 0],
            "variances": [1, 1, 1],
            "correlations": [0.2, 0.2, 0.2],
            "n_obs": 1500,
            "n_reps": 4,
            "seed": 7,
            "models": [{"family": "s"}],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

    def test_csv_output_and_reps_override(self, tmp_path, capsys):
        config = {
            "means": [0, 0, 0],
            "variances": [1, 1, 1],
            "correlations": [0.2, 0.2, 0.2],
            "n_obs": 1000,
            "n_reps": 50,
            "seed": 7,
            "models": [{"family": "s"}],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "rates.csv"
        assert main(["simulate", "--config", str(cfg), "--reps", "3", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("model,")
        assert len(lines) == 2
        capsys.readouterr()

    def test_fallbacks_and_first_failure_in_every_output(self, tmp_path, capsys):
        # gs under a |lam| > 1 link always falls back to fit_model; s is not blocked
        config = {
            "means": [0, 0, 0],
            "variances": [1, 1, 1],
            "correlations": [0.2, 0.2, 0.2],
            "n_obs": 1000,
            "n_reps": 3,
            "seed": 7,
            "models": [{"family": "s"}, {"family": "gs", "f": "power:2"}],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(row["fallbacks"], row["first_failure"]) for row in rows] == [(0, ""), (3, "")]

        out = tmp_path / "rates.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header, *lines = out.read_text().strip().splitlines()
        assert header.split(",")[-2:] == ["fallbacks", "first_failure"]
        assert [line.split(",")[-2:] for line in lines] == [["0", ""], ["3", ""]]
        text = capsys.readouterr().out
        assert "fallbacks" in text.splitlines()[1]
        assert text.splitlines()[3].split()[-1] == "3"

    def test_failed_fits_exit_3_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        def failing(counts, spec):
            raise fitting.FitError("test")

        monkeypatch.setattr(simulate, "fit_model", failing)
        config = {
            "means": [0, 0, 0],
            "variances": [1, 1, 1],
            "correlations": [0.2, 0.2, 0.2],
            "n_obs": 100,
            "n_reps": 2,
            "models": [{"family": "me"}],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "fit did not converge: 2 of 2 replicates failed to fit me: test\n"

    def test_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"means": [0, 0]}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "n_obs,reps", [(1000, "0"), (1000, "-3"), (0, None)], ids=["reps0", "reps-3", "n_obs0"]
    )
    def test_counts_below_one_exit_2_with_one_error_line(self, tmp_path, capsys, n_obs, reps):
        config = {
            "means": [0, 0, 0],
            "variances": [1, 1, 1],
            "correlations": [0.2, 0.2, 0.2],
            "n_obs": n_obs,
            "n_reps": 3,
            "models": [{"family": "s"}],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["simulate", "--config", str(cfg)] + (["--reps", reps] if reps else [])
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: bad simulation config") and err.count("\n") == 1

    def test_empty_cutpoints_exit_2_with_one_error_line(self, tmp_path, capsys):
        doc = json.loads(data_path("table2_row1.json").read_text())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(doc, cutpoints=[])))
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: bad simulation config: need at least one cutpoint (two categories)\n"

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_fewer_than_one_worker_exits_2_with_one_error_line(self, tmp_path, capsys, workers):
        config = {
            "means": [0, 0, 0],
            "variances": [1, 1, 1],
            "correlations": [0.2, 0.2, 0.2],
            "n_obs": 100,
            "n_reps": 3,
            "models": [{"family": "s"}],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg), "--workers", workers]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --workers must be at least 1, got {workers}\n"


class TestDesign:
    def test_dump(self, tmp_path, capsys):
        out = tmp_path / "design"
        assert main(["design", "--r", "3", "--T", "3", "--model", "gs", "--out", str(out)]) == 0
        X = np.loadtxt(out / "X.csv", delimiter=",")
        assert X.shape == (27, 16)
        U = np.loadtxt(out / "U.csv", delimiter=",")
        assert U.shape == (27, 11)
        layout = json.loads((out / "layout.json").read_text())
        assert layout["columns"]["gamma"] == [6, 16]
        assert layout["d1"] == 11
        capsys.readouterr()

    def test_rejects_symmetric_family(self, tmp_path, capsys):
        assert main(["design", "--r", "3", "--T", "3", "--model", "me2",
                     "--out", str(tmp_path)]) == 4
        capsys.readouterr()

    @pytest.mark.parametrize("r,T", [(4, 7), (129, 2)])
    def test_shapes_too_large_for_u_exit_2_before_the_build(self, tmp_path, capsys, monkeypatch, r, T):
        # U is N x d1; at T = 2, d1 = r(r - 1)/2 - 2, and r = 128 still fits in 1 GiB
        def refuse(*args, **kwargs):
            raise AssertionError("design_matrix was called")

        monkeypatch.setattr(design, "design_matrix", refuse)
        out = tmp_path / "design"
        capsys.readouterr()
        assert main(["design", "--r", str(r), "--T", str(T), "--model", "gs", "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"error: U of {r**T} cells needs an ") and err.count("\n") == 1
        assert not out.exists()

    def test_refusal_boundary_is_u_bytes(self, tmp_path, capsys, monkeypatch):
        # 3^3 under gs: U is 27 x 11, 2,376 bytes
        args = ["design", "--r", "3", "--T", "3", "--model", "gs"]
        monkeypatch.setattr(cli, "DESIGN_MAX_BYTES", 8 * 27 * 11 - 1)
        assert main(args + ["--out", str(tmp_path / "refused")]) == 2
        assert capsys.readouterr().err.startswith("error: U of 27 cells needs an array of 27 x 11 doubles")
        assert not (tmp_path / "refused").exists()
        monkeypatch.setattr(cli, "DESIGN_MAX_BYTES", 8 * 27 * 11)
        assert main(args + ["--out", str(tmp_path / "written")]) == 0
        U = np.loadtxt(tmp_path / "written" / "U.csv", delimiter=",")
        assert U.shape == (27, 11)
        capsys.readouterr()
