import contextlib
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fiprimes.cli import _write_ints, main
from fiprimes.primes import fi_primes_upto
from fiprimes.ternary import find_representation


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_xi_pinned(capsys):
    code, out, _ = run_cli(capsys, "xi", "--q", "4", "--a", "3")
    assert code == 0
    assert out.splitlines()[0] == "0"


def test_xi_rational_output(capsys):
    code, out, _ = run_cli(capsys, "xi", "--q", "3", "--a", "2")
    assert code == 0
    assert out.splitlines()[0] == "4/3"


def test_xi_bruteforce_agrees(capsys):
    _, out_fast, _ = run_cli(capsys, "xi", "--q", "45", "--a", "7", "--json")
    _, out_brute, _ = run_cli(capsys, "xi", "--q", "45", "--a", "7", "--brute-force", "--json")
    assert json.loads(out_fast)["xi"] == json.loads(out_brute)["xi"]


def test_constants_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "constants", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "fi/1"
    assert payload["alpha_plus"] <= 2.9739
    assert json.loads(json.dumps(payload)) == payload  # idempotent round trip


def test_constants_band_violation_exit_code(capsys):
    code, _, err = run_cli(capsys, "constants", "--xi1", "0.16")
    assert code == 2
    assert "assertion" in err


def test_verify_ternary(capsys):
    code, out, _ = run_cli(capsys, "verify-ternary", "--limit", "100", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exceptions"] == [3, 7, 11, 19, 27, 35, 43]
    rows = {r["x"]: r for r in payload["rows"]}
    assert rows[15] == {"x": 15, "p1": 5, "p2": 5, "p3": 5}
    assert rows[19] == {"x": 19, "status": "exception"}


def test_xi_bruteforce_rounding_violation_exit_code(capsys, monkeypatch):
    from fiprimes.local import coprime_rho_row

    irfft = np.fft.irfft
    coprime_rho_row.cache_clear()
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
    code, _, err = run_cli(capsys, "xi", "--q", "45", "--a", "7", "--brute-force")
    assert code == 2
    assert "rounding margin" in err


def test_verify_ternary_csv(capsys):
    code, out, _ = run_cli(capsys, "verify-ternary", "--limit", "20", "--csv")
    lines = out.splitlines()
    assert lines[0] == "x,p1,p2,p3"
    assert "15,5,5,5" in lines
    assert "19,,,exception" in lines


def test_verify_ternary_rows_match_find_representation(capsys):
    code, out, _ = run_cli(capsys, "verify-ternary", "--limit", "2000", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["x"] for r in rows] == list(range(3, 2001, 4))
    fi = fi_primes_upto(2000)
    for r in rows:
        wit = find_representation(r["x"], table=fi, table_limit=2000)
        if wit is None:
            assert r == {"x": r["x"], "status": "exception"}
        else:
            assert r == {"x": wit.x, "p1": wit.p1, "p2": wit.p2, "p3": wit.p3}


def test_verify_ternary_output_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify-ternary", "--limit", "100000", "--json")
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == "64038fbf5c23b8e4eeb03f9d1099f724fd0d87a6"


@pytest.mark.parametrize("argv, sha1", [
    ("buchstab --u 5 --json", "ce0e20631dfd07fe254d13caab44be52c6bd8ecd"),
    ("buchstab --u 9.87654 --json", "66d66708317899c9e4eea47f783cfae60133c4a8"),
    ("rough --limit 1000000 --z 1000 --json", "a61cde64a69f98f2caa556e2ba7facde46f39645"),
    # u reaches log2(1e6) = 19.9, past the first Buchstab table's end at 10
    ("rough --limit 1000000 --z 2 --json", "a58cbc251ab6013bab74c2847e9679121240017b"),
    ("constants --json", "610dbfbac667c8f1f2a34d5ca3fef6a272860935"),
])
def test_buchstab_and_constants_output_pinned(argv, sha1, capsys):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


def test_verify_ternary_over_the_byte_budget_exits_1(capsys, monkeypatch):
    from fiprimes import primes

    monkeypatch.setattr(primes, "MAX_TABLE_BYTES", 10**5)
    code, out, err = run_cli(capsys, "verify-ternary", "--limit", "20000")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ternary scan to 20000 needs ")
    assert "Traceback" not in err


def test_verify_ternary_refuses_before_loading_the_table(capsys, monkeypatch, tmp_path):
    # 6 bytes for each of the 7.5e8 indices are over the budget: refused
    # before the FI table to 3e9 is built or its cache written
    from fiprimes import ternary

    def no_table(*args):
        raise AssertionError("the FI table was loaded before the byte check")

    cache = tmp_path / "cache"
    argv = ["verify-ternary", "--limit", "3e9", "--exceptions-only", "--cache-dir", str(cache)]
    with monkeypatch.context() as m:
        m.setattr(ternary, "fi_primes_upto", no_table)
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ternary scan to 3000000000 needs 4500000000 bytes")
    assert run_cli(capsys, *argv)[0] == 1
    assert not cache.exists()


def test_enumerate_text(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--limit", "30")
    assert code == 0
    assert out == "5\n13\n29\n# count: 3\n"


def test_enumerate_with_cache(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--limit", "100", "--json", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert json.loads(out)["primes"] == [5, 13, 29, 41, 53, 61, 73, 89]
    assert (tmp_path / "fi-primes.txt").exists()


def test_enumerate_cache_from_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FI_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "enumerate", "--limit", "100", "--json")
    assert code == 0
    assert json.loads(out)["primes"] == [5, 13, 29, 41, 53, 61, 73, 89]
    assert (tmp_path / "fi-primes.txt").exists()


@pytest.mark.parametrize("argv", [
    ["xi", "--q", "3", "--a", "2", "--cache-dir", "."],
    ["sieve", "--x", "1000", "--n", "10", "--cache-dir", "."],
    ["constants", "--grid", "32"],
])
def test_flags_without_effect_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_validation_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "rough", "--limit", "10", "--z", "100")
    assert code == 1
    assert "error" in err


def test_rough_over_the_byte_budget_exit_code(capsys, forbid_alloc):
    forbid_alloc()
    code, _, err = run_cli(capsys, "rough", "--limit", "10000000000", "--z", "1000")
    assert code == 1
    # half a byte per integer: the count reads the odd numbers only
    assert err.startswith("error: rough mask to 10000000000 needs 5000034194 bytes")


def test_buchstab_command(capsys):
    code, out, _ = run_cli(capsys, "buchstab", "--u", "1.5", "--json")
    assert code == 0
    assert json.loads(out)["B"] == pytest.approx(2.0 / 3.0)
    code, out, _ = run_cli(capsys, "buchstab", "--u", "12", "--json")
    assert code == 0
    assert json.loads(out)["B"] == 0.5614594835169276


def test_lattice_command(capsys):
    code, out, _ = run_cli(
        capsys, "lattice", "--l1", "1,1", "--d1", "6", "--l2", "2,1", "--d2", "10", "--json"
    )
    assert code == 0
    assert json.loads(out)["delta"] == 60


def test_expsum_minsum_json(capsys):
    code, out, _ = run_cli(
        capsys, "expsum", "minsum", "--gamma", "1/2", "--J", "4", "--K", "10", "--json"
    )
    payload = json.loads(out)
    assert payload["value_re"] == pytest.approx(24.0)
    assert payload["bound"] == pytest.approx(34.158883, abs=1e-4)
    assert payload["ratio"] == pytest.approx(24.0 / 34.158883, abs=1e-4)


def test_sieve_command(capsys):
    code, out, _ = run_cli(capsys, "sieve", "--x", "100000", "--n", "35", "--sign", "+", "--json")
    assert code == 0
    payload = json.loads(out)
    assert "theta" in payload and "lambda_plus" in payload


def test_3ap_command(capsys):
    code, out, _ = run_cli(capsys, "3ap", "--limit", "53", "--json")
    assert code == 0
    assert [5, 29, 53] in json.loads(out)["aps"]


def test_lq_command(capsys):
    code, out, _ = run_cli(capsys, "lq", "--x", "100000", "--q", "2.5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["moment_ratio"] < 10.0


def test_lq_over_the_byte_budget_exits_1(capsys):
    code, out, err = run_cli(capsys, "lq", "--x", "1e4", "--grid", "1e9")
    assert code == 1
    assert out == ""
    assert err.startswith("error: L^q grid of 1000000000 points needs 40000000000 bytes")


def test_lq_checks_the_grid_bytes_before_building_the_sequence(capsys, monkeypatch):
    from fiprimes import ternary

    def no_build(*args, **kwargs):
        raise AssertionError("built the sequence before the byte check")

    monkeypatch.setattr(ternary, "wtrick_build", no_build)
    code, out, err = run_cli(capsys, "lq", "--x", "1e4", "--grid", "1e9")
    assert code == 1
    assert out == ""
    assert err.startswith("error: L^q grid of 1000000000 points needs 40000000000 bytes")


@pytest.mark.parametrize("argv, message", [
    ("enumerate --limit -300 --json", "error: --limit must be >= 0, got -300\n"),
    ("lq --x -5", "error: --x must be >= 2, got -5\n"),
    ("verify-ternary --limit -5", "error: --limit must be >= 3, got -5\n"),
    ("3ap --limit -5", "error: --limit must be >= 5, got -5\n"),
    ("rough --limit -5 --z 3", "error: need 2 <= --z <= --limit, got --z 3.0 and --limit -5\n"),
    ("lq --x 1", "error: --x must be >= 2, got 1\n"),
])
def test_negative_sizes_exit_1(argv, message, capsys):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("argv, needle", [
    *(
        (f"constants {flag} {value}", f"{flag} must be finite, got {value}")
        for flag in ("--xi", "--xi1", "--delta0") for value in ("nan", "inf")
    ),
    ("expsum s0 --gamma 1/0", "--gamma"),
    ("expsum s0 --gamma inf", "--gamma"),
    ("expsum minsum --gamma 1/0", "--gamma"),
    ("expsum minsum --gamma inf", "--gamma"),
    ("expsum type1 --gamma inf", "--gamma"),
    ("expsum type2 --gamma inf", "--gamma"),
    ("expsum minsum --K nan", "K > 0"),
    ("expsum type1 --W 0", "W >= 1"),
    ("lq --x 1e5 --grid 0", "--grid must be >= 4 N = 200000"),
    ("lq --x 1e5 --w-override inf", "--w-override"),
    ("lq --x 1e5 --w-override 1000", "--w-override"),
])
def test_bad_flag_values_exit_1(argv, needle, capsys, monkeypatch):
    from fiprimes import constants, ternary

    def no_run(*args, **kwargs):
        raise AssertionError("computed before checking the flags")

    monkeypatch.setattr(ternary, "wtrick_build", no_run)
    monkeypatch.setattr(constants, "alpha_plus", no_run)
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize("short, plain", [
    ("lq --x 1e5 --json", "lq --x 100000 --json"),
    ("enumerate --limit 1e3", "enumerate --limit 1000"),
])
def test_integer_flags_take_powers_of_ten(short, plain, capsys):
    code, out, _ = run_cli(capsys, *short.split())
    assert code == 0
    assert (code, out) == run_cli(capsys, *plain.split())[:2]


@pytest.mark.parametrize("value", ["1.5e3", "1e-3", "nan", "inf"])
def test_integer_flags_refuse_non_integers(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--limit", value])
    assert exc.value.code == 2
    assert f"argument --limit: expected an integer such as 100000 or 1e5, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("mode, sha1", [
    ("--json", "89f394d86bcc536a21ae2101640c267e4a0bc466"),
    ("--csv", "f3901bac48c0c28c750e09bc9428566a17444b27"),
    (None, "42969efd1ef812721b239cba327a7134e10a92b1"),
])
def test_3ap_output_pinned(mode, sha1, capsys):
    code, out, _ = run_cli(capsys, "3ap", "--limit", "1e4", *([mode] if mode else []))
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


@pytest.mark.parametrize("mode, sha1", [
    ("--json", "6d49978c682745f054ca26707cf6f8d348da5320"),
    ("--csv", "30d5152ac503b510be4034d710d4e200c2043bcc"),
    (None, "7d8aa15afeeab00a8c23d3b289e3ac5eeaf8339a"),
])
def test_verify_ternary_rows_pinned_across_chunks(mode, sha1, capsys):
    # 75,000 rows: the rows are formatted in 2^16-index chunks
    code, out, _ = run_cli(capsys, "verify-ternary", "--limit", "3e5", *([mode] if mode else []))
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


def test_3ap_csv(capsys):
    code, out, _ = run_cli(capsys, "3ap", "--limit", "53", "--csv")
    lines = out.splitlines()
    assert lines[0] == "p,mid,third"
    assert "5,29,53" in lines


def test_expsum_s0_json(capsys):
    code, out, _ = run_cli(capsys, "expsum", "s0", "--gamma", "0", "--N", "9", "--json")
    payload = json.loads(out)
    assert payload["value_re"] == pytest.approx(9.0)
    assert payload["value_im"] == pytest.approx(0.0)


def test_expsum_type2_json(capsys):
    code, out, _ = run_cli(capsys, "expsum", "type2", "--gamma", "0", "--N", "16", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value_im"] == pytest.approx(0.0, abs=1e-9)


def test_expsum_type2_text_times_both_routes(capsys):
    code, out, _ = run_cli(capsys, "expsum", "type2", "--gamma", "0.37", "--N", "64")
    assert code == 0
    assert out.startswith("lattice sum = ")
    assert " ms, direct " in out and out.rstrip().endswith(" ms)")


def test_expsum_type2_routes_disagreeing_exit_2(capsys, monkeypatch):
    from fiprimes import expsum as E

    monkeypatch.setattr(E, "type2_lattice_sum_bruteforce", lambda *args: 0.5j)
    code, out, err = run_cli(capsys, "expsum", "type2", "--gamma", "0.37", "--N", "64")
    assert code == 2
    assert out == ""
    assert "disagrees with the direct filter" in err


def test_expsum_dfi_default_flags(capsys):
    code, out, _ = run_cli(capsys, "expsum", "dfi")
    assert code == 0
    assert out.startswith("S = ")
    code, out, _ = run_cli(capsys, "expsum", "dfi", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "fi/1"
    assert 0.0 <= payload["ratio"] <= 1.0


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--limit", "30", "--csv")
    assert out.splitlines() == ["p", "5", "13", "29"]


@pytest.fixture(scope="module")
def fi_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fi-cache"))


@pytest.mark.parametrize("mode, sha1", [
    ("--json", "82f98b64c39253f6f24748bbb9e751a11e72c418"),
    ("--csv", "b8c086ff222ad5cb2d0d568f12dce2408a8a8aa0"),
    (None, "6481eb8d6c989d5f5d261f2d3e5607732af2e60a"),
])
def test_enumerate_output_pinned(mode, sha1, fi_cache, capsys):
    # 105,194 FI primes to 1e7: two 2^16 chunks of the writer, digit counts 1 to 7
    argv = ["enumerate", "--limit", "1e7", "--cache-dir", fi_cache] + ([mode] if mode else [])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


def _ints_written(a, sep):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _write_ints(a, sep)
    return buf.getvalue()


# every digit count's first and last value, and the int64 maximum
_DIGIT_EDGES = sorted({0, 2**63 - 1, *(10**k for k in range(19)), *(10**k - 1 for k in range(1, 19))})


def test_digit_edges_cover_every_digit_count():
    # with four digits a cell, each count d = 1 to 19 leaves its own remainder
    # of leading digits and its own pad in front of the separator
    assert sorted({len(str(v)) for v in _DIGIT_EDGES}) == list(range(1, 20))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1)), st.sampled_from([", ", "\n"]))
@example([], ", ")
@example([7], "\n")
@example(_DIGIT_EDGES, ", ")
@example(_DIGIT_EDGES, "\n")
@example([5, 5, 13], ", ")
def test_write_ints_is_the_join_of_str(values, sep):
    a = np.array(sorted(values), dtype=np.int64)
    assert _ints_written(a, sep) == sep.join(map(str, a.tolist()))


@pytest.mark.parametrize("sep", [", ", "\n"])
@pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1])
def test_write_ints_across_the_chunk_edge(n, sep):
    # log-uniform values, so that a chunk holds runs of many digit counts
    rng = np.random.default_rng(n)
    a = np.sort((10.0 ** rng.uniform(0.0, 18.9, n)).astype(np.int64))
    assert _ints_written(a, sep) == sep.join(map(str, a.tolist()))


@pytest.mark.parametrize("a", [
    np.array([13, 5]),
    np.array([-1, 5]),
    np.array([-7]),
    # each chunk ascends, but the second starts below the end of the first
    np.concatenate((np.arange(1, 2**16 + 1), [0])),
])
def test_write_ints_refuses_descending_or_negative_input(a):
    with pytest.raises(ValueError, match="non-negative, non-decreasing"):
        _ints_written(a.astype(np.int64), ", ")
