import json

import pytest

from spinblocks.cli import main
from spinblocks.partitions import PATH_COUNT_MEMO


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_core_golden(capsys):
    report = run_json(capsys, "core", "--p", "5", "--partition", "7,4,2,1")
    assert report["command"] == "core"
    assert report["outputs"] == {"core": [7, 2], "weight": 1}


def test_enumerate(capsys):
    report = run_json(capsys, "enumerate", "--n", "4", "--kind", "strict")
    assert report["outputs"]["partitions"] == [[4], [3, 1]]


def test_verify_dim_sqd(capsys):
    report = run_json(capsys, "verify", "dim-sqd", "--n", "4")
    assert report["outputs"]["verdict"] == "pass"
    assert report["outputs"]["lhs"] == {"ordinary": 24, "strict": 24}
    assert report["outputs"]["rhs"] == 24


def test_branch_golden(capsys):
    report = run_json(
        capsys, "branch", "--p", "5", "--rho", "2,1", "--j", "0", "--dir", "induce"
    )
    assert report["outputs"]["vector"] == [
        {"label": "5,2,1", "a": 1, "b": 0},
        {"label": "6,2", "a": 2, "b": 0},
        {"label": "7,1", "a": 2, "b": 0},
    ]


def test_branch_restrict(capsys):
    report = run_json(
        capsys, "branch", "--p", "5", "--lambda", "5,2,1", "--dir", "restrict"
    )
    labels = {row["label"]: row["a"] for row in report["outputs"]["vector"]}
    assert labels == {"2,1|0": 1, "2,1|1": 2, "2,1|2": 2}


def test_quotient_and_neighbors(capsys):
    report = run_json(capsys, "quotient", "--p", "5", "--lambda", "6,2")
    assert report["outputs"] == {"q0": [], "components": [[1], []]}
    report = run_json(
        capsys, "neighbors", "--p", "5", "--lambda", "2,1", "--j", "0", "--dir", "add"
    )
    assert report["outputs"]["partitions"] == [[5, 2, 1]]


def test_block_and_rouquier(capsys):
    report = run_json(capsys, "block", "--p", "5", "--rho", "2,1", "--d", "1")
    assert report["outputs"]["count"] == 3
    report = run_json(capsys, "rouquier", "check", "--p", "5", "--rho", "2,1", "--d", "1")
    assert report["outputs"] == {"rouquier": True}
    report = run_json(
        capsys, "rouquier", "gen", "--p", "5", "--d", "2", "--parity", "odd", "--count", "1"
    )
    assert report["outputs"]["cores"] == [[12, 7, 6, 2, 1]]


def test_strip_fcoeff_induce(capsys):
    report = run_json(capsys, "strip", "--p", "5", "--lambda", "6,2", "--mu", "2,1")
    assert report["outputs"]["runner"] == 1
    report = run_json(capsys, "fcoeff", "--lambda", "6,2", "--mu", "2,1", "--nu", "5")
    assert report["outputs"] == {"f": 1}
    report = run_json(capsys, "induce", "--mu", "2,1", "--nu", "5")
    assert len(report["outputs"]["vector"]) == 3


def test_maction_orbit_hyp_nmv_phi(capsys):
    report = run_json(capsys, "maction", "--p", "5", "--rho", "2,1", "--mu", "2,1", "--j", "0")
    assert {r["label"]: r["a"] for r in report["outputs"]["vector"]} == {
        "2,1|0": 1, "2,1|1": 2, "2,1|2": 2,
    }
    report = run_json(capsys, "orbit", "--p", "5", "--rho", "2,1", "--dcomp", "1,1,0")
    assert report["outputs"]["certificate"] == 2
    report = run_json(capsys, "hyp", "--p", "5", "--rho", "12,7,6,2,1", "--dcomp", "0,2,0")
    assert len(report["outputs"]["vector"]) == 2
    report = run_json(capsys, "nmv", "--p", "5", "--rho", "2,1", "--d", "1", "--space", "L")
    assert len(report["outputs"]["generators"]) == 2
    report = run_json(capsys, "phi", "--p", "5", "--rho", "2,1", "--tuple", "1")
    assert report["outputs"]["value"] == {"a": -2, "b": 0}


def test_tree_commands(capsys):
    report = run_json(capsys, "tree", "build", "--kind", "B", "--ell", "2")
    assert report["outputs"]["path"] == ["2+", "1+", "0", "1-", "2-"]
    report = run_json(capsys, "tree", "walk", "--kind", "A", "--ell", "2")
    assert report["outputs"]["characters"] == [["2"], ["1"], ["0+", "0-"], ["1"]]
    report = run_json(
        capsys, "tree", "heller", "--kind", "B", "--ell", "2", "--start", "2+", "--n", "3"
    )
    assert report["outputs"]["constituents"] == [["1-"]]
    report = run_json(capsys, "tree", "weight1", "--p", "5", "--rho", "2,1")
    assert report["outputs"]["kind"] == "A"
    assert set(report["outputs"]["nodes"]["0"]) == {"5,2,1+", "5,2,1-"}


def test_verify_all_small(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "--p", "5", "--dmax", "1", "--oracle")
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["summary"]["failed"] == 0
    assert report["outputs"]["summary"]["total"] > 10


def test_verify_single_check_verdicts_key(capsys):
    report = run_json(capsys, "verify", "dim-sqd", "--n", "5")
    assert report["verdicts"] == {"dim-sqd": "pass"}


def test_verify_new_named_checks(capsys):
    report = run_json(capsys, "verify", "core-order", "--p", "3")
    assert report["outputs"]["verdict"] == "pass"
    report = run_json(capsys, "verify", "tree-suite", "--p", "5")
    assert report["outputs"]["verdict"] == "pass"
    report = run_json(
        capsys, "verify", "stembridge-cross", "--p", "5", "--rho", "2,1", "--d", "1"
    )
    assert report["outputs"]["verdict"] == "pass"
    report = run_json(
        capsys, "verify", "phi-kernel", "--p", "5", "--rho", "2,1", "--d", "1"
    )
    assert report["outputs"]["verdict"] == "pass"


def test_csv_verdict_table(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "verify", "dim-sqd", "--n", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,verdict"
    assert lines[1] == "dim-sqd,pass"


def test_exit_code_usage_error(capsys):
    code, out, err = run_cli(capsys, "core", "--p", "4", "--partition", "2,1")
    assert code == 2
    assert "odd prime" in err
    # too large for a float square root; 3 divides it
    code, out, err = run_cli(capsys, "core", "--p", str(3**700), "--partition", "2,1")
    assert code == 2
    assert "odd prime" in err


def test_exit_code_domain_error(capsys):
    code, out, err = run_cli(capsys, "quotient", "--p", "5", "--lambda", "3")
    assert code == 2
    assert "quotient" in err


def test_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "verify", "all", "--p", "5", "--dmax", "1")
    _, second, _ = run_cli(capsys, "verify", "all", "--p", "5", "--dmax", "1")
    assert first == second


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "branch", "--p", "5", "--rho", "2,1", "--j", "0",
        "--dir", "induce",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "label,a,b"
    assert '"5,2,1",1,0' in lines


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "kcache.tsv"
    code, _, _ = run_cli(
        capsys, "--cache", str(cache), "verify", "dim-sqd", "--n", "6"
    )
    assert code == 0
    text = cache.read_text()
    assert text.startswith("spinblocks-kcache 1\n")
    assert "ordinary\t" in text and "strict\t" in text
    # a fresh process state can reload the cache
    PATH_COUNT_MEMO.clear()
    code, _, _ = run_cli(capsys, "--cache", str(cache), "verify", "dim-sqd", "--n", "6")
    assert code == 0


@pytest.mark.parametrize(
    "text",
    [
        "not a cache\n",
        "spinblocks-kcache 1\nstrict\t2,1\n",
        "spinblocks-kcache 1\nweird\t2,2\t5\n",
    ],
)
def test_corrupt_cache_is_an_input_error(tmp_path, capsys, text):
    cache = tmp_path / "kcache.tsv"
    cache.write_text(text)
    code, out, err = run_cli(
        capsys, "--cache", str(cache), "core", "--p", "5", "--partition", "2,1"
    )
    assert code == 2
    assert err.startswith("error:")
    assert out == ""
    assert cache.read_text() == text


def test_timing_flag(capsys):
    report = run_json(capsys, "--timing", "core", "--p", "5", "--partition", "5")
    assert "timing" in report
    _, out, _ = run_cli(capsys, "core", "--p", "5", "--partition", "5")
    assert "timing" not in json.loads(out)
