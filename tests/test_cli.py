import csv
import json
import math

import numpy as np
import pytest

from cpdhnf import decompose_with_info, polysys, read_tensor
from cpdhnf.cli import main

from conftest import NO_SCIPY, fail_dense_buffers, run_fresh, stacked_rows


def run(args):
    return main(args)


class TestGenerate:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(["generate", "--dims", "4,3,3", "--rank", "4", "--seed", "7",
                    "--output", str(a)]) == 0
        assert run(["generate", "--dims", "4,3,3", "--rank", "4", "--seed", "7",
                    "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_truth_file(self, tmp_path):
        out, truth = tmp_path / "t.txt", tmp_path / "truth.json"
        assert run(["generate", "--dims", "5,4,3", "--rank", "3", "--seed", "1",
                    "--output", str(out), "--truth", str(truth)]) == 0
        payload = json.loads(truth.read_text())
        assert payload["rank"] == 3
        assert len(payload["factors"]) == 3
        assert len(payload["factors"][0]) == 5

    def test_complex_field(self, tmp_path):
        out = tmp_path / "c.txt"
        assert run(["generate", "--dims", "3,3,2", "--rank", "2", "--seed", "2",
                    "--field", "complex", "--output", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "complex"


class TestDecompose:
    def test_round_trip(self, tmp_path):
        tensor = tmp_path / "t.txt"
        result = tmp_path / "res.json"
        run(["generate", "--dims", "12,7,3", "--rank", "12", "--seed", "3",
             "--output", str(tensor)])
        assert run(["decompose", "--input", str(tensor), "--rank", "12",
                    "--output", str(result)]) == 0
        res = json.loads(result.read_text())
        assert res["format"] == "cpdhnf-result v1"
        assert res["backward_error"] <= 1e-10
        assert res["degree_used"] == [3, 1]
        assert res["shape"] == [12, 7, 3]
        assert len(res["factors"]) == 3

    def test_json_round_trip_and_rerun_equality(self, tmp_path):
        tensor = tmp_path / "t.txt"
        run(["generate", "--dims", "8,5,4", "--rank", "6", "--seed", "4",
             "--output", str(tensor)])
        outs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            assert run(["decompose", "--input", str(tensor), "--rank", "6",
                        "--seed", "9", "--output", str(path)]) == 0
            outs.append(json.loads(path.read_text()))
        for res in outs:
            assert json.loads(json.dumps(res)) == res
        a, b = outs
        a.pop("stage_timings_ms")
        b.pop("stage_timings_ms")
        assert a == b

    @pytest.mark.parametrize("rank, path", [(12, "normal-form"), (1, "rank-1")])
    def test_certificates_in_result(self, tmp_path, rank, path):
        tensor = tmp_path / "t.txt"
        result = tmp_path / "res.json"
        run(["generate", "--dims", "12,7,3", "--rank", str(rank), "--seed", "3",
             "--output", str(tensor)])
        assert run(["decompose", "--input", str(tensor), "--rank", str(rank),
                    "--output", str(result)]) == 0
        res = json.loads(result.read_text())
        assert res["path"] == path
        if path == "rank-1":
            assert res["alpha_residual"] is None and res["basis_cond"] is None
        else:
            assert 0 <= res["alpha_residual"] <= 1e-12
            assert res["basis_cond"] >= 1

    @pytest.mark.parametrize("dims, rank, path", [
        ("12,7,3", 12, "normal-form"), ("9,6,5", 5, "pencil"),
        ("6,5,4", 1, "rank-1"), ("4,4,3,3", 6, "normal-form")])
    def test_result_carries_every_info_key(self, tmp_path, dims, rank, path):
        tensor = tmp_path / "t.txt"
        result = tmp_path / "res.json"
        run(["generate", "--dims", dims, "--rank", str(rank), "--seed", "3",
             "--output", str(tensor)])
        assert run(["decompose", "--input", str(tensor), "--rank", str(rank),
                    "--output", str(result)]) == 0
        res = json.loads(result.read_text())
        _, info = decompose_with_info(read_tensor(tensor), rank)
        assert info["path"] == path
        assert set(info) <= set(res)
        info.pop("stage_timings_ms")
        assert {key: res[key] for key in info} == json.loads(json.dumps(info))

    def test_refinement_keys(self, tmp_path):
        """Both refinement keys reach the JSON; --newton 0 takes no step and
        reports the unrefined error as the backward error."""
        tensor = tmp_path / "t.txt"
        run(["generate", "--dims", "12,7,3", "--rank", "12", "--seed", "3",
             "--output", str(tensor)])
        results = {}
        for newton in ("3", "0"):
            path = tmp_path / f"newton{newton}.json"
            assert run(["decompose", "--input", str(tensor), "--rank", "12",
                        "--newton", newton, "--output", str(path)]) == 0
            results[newton] = json.loads(path.read_text())
        on, off = results["3"], results["0"]
        assert 0 <= on["refinement_steps"] <= 3
        assert on["backward_error"] <= on["unrefined_backward_error"]
        assert off["refinement_steps"] == 0
        assert off["backward_error"] == off["unrefined_backward_error"]
        assert off["unrefined_backward_error"] == on["unrefined_backward_error"]

    def test_kernel_paths_agree(self, tmp_path):
        tensor = tmp_path / "t.txt"
        run(["generate", "--dims", "12,7,3", "--rank", "12", "--seed", "5",
             "--output", str(tensor)])
        errs = {}
        for kernel in ("svd", "eigs"):
            path = tmp_path / f"{kernel}.json"
            assert run(["decompose", "--input", str(tensor), "--rank", "12",
                        "--kernel", kernel, "--output", str(path)]) == 0
            errs[kernel] = json.loads(path.read_text())["backward_error"]
        hi, lo = max(errs.values()), min(errs.values())
        assert hi <= 10 * max(lo, 1e-16)

    def test_forced_degree_flag(self, tmp_path):
        tensor = tmp_path / "t.txt"
        run(["generate", "--dims", "4,3,3", "--rank", "4", "--seed", "6",
             "--output", str(tensor)])
        path = tmp_path / "res.json"
        assert run(["decompose", "--input", str(tensor), "--rank", "4",
                    "--degree", "2,1", "--output", str(path)]) == 0
        assert json.loads(path.read_text())["degree_used"] == [2, 1]

    @pytest.mark.parametrize("rank", ["-2", "0"])
    def test_rank_below_one_is_an_input_error(self, tmp_path, capsys, rank):
        tensor = tmp_path / "t.txt"
        run(["generate", "--dims", "4,3,3", "--rank", "4", "--seed", "7",
             "--output", str(tensor)])
        assert run(["decompose", "--input", str(tensor), "--rank", rank]) == 1
        err = capsys.readouterr().err
        assert "error[input]: rank must be positive" in err
        assert "Traceback" not in err

    def test_rank_out_of_range_exit_code(self, tmp_path, capsys):
        tensor = tmp_path / "t.txt"
        run(["generate", "--dims", "4,3,3", "--rank", "4", "--seed", "7",
             "--output", str(tensor)])
        assert run(["decompose", "--input", str(tensor), "--rank", "40"]) == 1
        err = capsys.readouterr().err
        assert "RankOutOfRange" in err and "error[" in err

    def test_cokernel_allocation_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        tensor = tmp_path / "t.txt"
        run(["generate", "--dims", "12,7,3", "--rank", "12", "--seed", "3",
             "--output", str(tensor)])
        fail_dense_buffers(monkeypatch, stacked_rows(6, 2, 12, (3, 1)))
        assert run(["decompose", "--input", str(tensor), "--rank", "12"]) == 1
        err = capsys.readouterr().err
        assert "error[cokernel]: InsufficientMemory" in err
        assert "Traceback" not in err

    def test_cokernel_plan_check_exit_code(self, tmp_path, capsys, monkeypatch):
        tensor = tmp_path / "t.txt"
        run(["generate", "--dims", "12,7,3", "--rank", "12", "--seed", "3",
             "--output", str(tensor)])
        monkeypatch.setattr(polysys, "_physical_memory", lambda: 1)
        assert run(["decompose", "--input", str(tensor), "--rank", "12"]) == 1
        err = capsys.readouterr().err
        assert "error[cokernel]: InsufficientMemory" in err
        assert "Traceback" not in err

    def test_certify_plan_check_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(polysys, "_physical_memory", lambda: 1)
        assert run(["certify", "--m", "5", "--n", "4", "--d", "2", "--r", "auto"]) == 1
        err = capsys.readouterr().err
        assert "]: InsufficientMemory: cannot allocate a dense" in err
        assert err.startswith("error[") and "Traceback" not in err

    def test_negative_newton_is_an_input_error(self, tmp_path, capsys):
        tensor = tmp_path / "t.txt"
        run(["generate", "--dims", "4,3,3", "--rank", "4", "--seed", "6",
             "--output", str(tensor)])
        code = run(["decompose", "--input", str(tensor), "--rank", "4", "--newton", "-2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error[input]: newton_iters must be at least 0, got -2")
        assert "Traceback" not in err

    def test_missing_file(self, capsys):
        assert run(["decompose", "--input", "/nonexistent/t.txt", "--rank", "2"]) == 1
        assert "error[input]" in capsys.readouterr().err

    def test_golden_tensor_file(self, tmp_path, golden_tensor):
        from cpdhnf import write_tensor
        tensor = tmp_path / "golden.txt"
        write_tensor(tensor, golden_tensor)
        result = tmp_path / "res.json"
        assert run(["decompose", "--input", str(tensor), "--rank", "4",
                    "--output", str(result)]) == 0
        res = json.loads(result.read_text())
        assert res["backward_error"] <= 1e-12
        assert tuple(res["degree_used"]) >= (1, 1)

    def test_complex_round_trip(self, tmp_path):
        tensor = tmp_path / "c.txt"
        run(["generate", "--dims", "6,4,3", "--rank", "4", "--seed", "8",
             "--field", "complex", "--output", str(tensor)])
        result = tmp_path / "res.json"
        assert run(["decompose", "--input", str(tensor), "--rank", "4",
                    "--output", str(result)]) == 0
        res = json.loads(result.read_text())
        assert res["backward_error"] <= 1e-10
        # complex factors serialize as [re, im] pairs
        assert isinstance(res["factors"][0][0][0], list)


class TestNoiseSweep:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["noise-sweep", "--dims", "10,5,3", "--rank", "4",
                    "--levels=-12,-8", "--trials", "2", "--seed", "1",
                    "--output", str(out)]) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["e", "trial", "backward_error", "runtime"]
        assert len(rows) == 1 + 2 * 2
        for e, trial, err, runtime in rows[1:]:
            assert float(err) <= 10.0 ** int(e)
            assert float(runtime) >= 0

    def test_zero_trials_empty_with_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["noise-sweep", "--dims", "10,5,3", "--rank", "4",
                    "--levels=-12:-10", "--trials", "0", "--output", str(out)]) == 0
        rows = list(csv.reader(out.open()))
        assert rows == [["e", "trial", "backward_error", "runtime"]]

    def test_range_levels_parsing(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["noise-sweep", "--dims", "10,5,3", "--rank", "3",
                    "--levels=-10:-12", "--trials", "1", "--output", str(out)]) == 0
        rows = list(csv.reader(out.open()))[1:]
        assert [int(r[0]) for r in rows] == [-10, -11, -12]


class TestCertify:
    def test_single_cell(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["certify", "--m", "3", "--n", "2", "--d", "2", "--r", "6",
                    "--output", str(out)]) == 0
        cert = json.loads(out.read_text())
        assert cert["success"] and cert["hf"] == 6

    def test_auto_rank(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["certify", "--m", "4", "--n", "4", "--d", "2", "--r", "auto",
                    "--output", str(out)]) == 0
        cert = json.loads(out.read_text())
        assert cert["r"] == math.floor(min(12.5, 16))
        assert cert["success"]

    def test_sweep_stream(self, tmp_path):
        out = tmp_path / "certs.jsonl"
        assert run(["certify", "--d", "2", "--r", "auto", "--sweep", "4,4",
                    "--output", str(out)]) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 9
        assert all(cert["success"] for cert in lines)

    def test_out_of_range_cell_recorded(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = run(["certify", "--m", "2", "--n", "2", "--d", "2", "--r", "5",
                    "--output", str(out)])
        cert = json.loads(out.read_text())
        assert not cert["success"] and "error" in cert
        assert code == 2

    def test_size_below_one_input_error(self, capsys):
        code = run(["certify", "--m", "0", "--n", "2", "--d", "2", "--r", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error[input]: m must be at least 1")
        assert "Traceback" not in err

    def test_auto_rank_size_below_one_input_error(self, capsys):
        # the automatic rank is computed before certify_regularity checks m
        code = run(["certify", "--m", "0", "--n", "2", "--d", "2", "--r", "auto"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error[input]: m must be at least 1, got 0")
        assert "Traceback" not in err

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_below_one_input_error(self, capsys, trials):
        code = run(["certify", "--m", "3", "--n", "2", "--d", "2", "--r", "auto",
                    "--trials", trials])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error[input]: trials must be at least 1, got {trials}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("sweep", ["1,3", "3,1", "0,0"])
    def test_empty_sweep_input_error(self, tmp_path, capsys, sweep):
        out = tmp_path / "certs.jsonl"
        code = run(["certify", "--d", "2", "--sweep", sweep, "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error[input]: sweep bounds must be at least 2, got {sweep}")
        assert not out.exists()

    def test_runs_without_scipy(self):
        out = run_fresh("""
from cpdhnf.cli import main
assert main(["certify", "--m", "5", "--n", "4", "--d", "2", "--r", "auto"]) == 0
""" + NO_SCIPY)
        assert json.loads(out)["success"]
