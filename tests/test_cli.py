"""End-to-end CLI behavior through real subprocesses: output formats,
exit codes, determinism.  The help texts, pinned byte for byte, and the
name-to-builder rule are checked in-process.  The process entry freezes
the garbage collector before the exit, and cli.main in-process does not;
pinned invocations print the same bytes either way."""

import ast
import copy
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import ffkakeya
from ffkakeya.cli import CIRCULAR, SPHERICAL, build_parser
from test_cli_digests import DIGESTS, INVOCATIONS, call, write_set_files

CMD = [sys.executable, "-m", "ffkakeya"]


# `ffkakeya <command> --help` at COLUMNS=80
HELP = {
    "construct": """\
usage: ffkakeya construct [-h] --p P [--k K] [--n N] --which
                          {radius-spherical,center-spherical,hypersphere-union,circular-prime,circular-square,circular-odd-power}
                          [--variant {radius,center}] [--r R]
                          [--format {json,csv}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --p P
  --k K
  --n N
  --which {radius-spherical,center-spherical,hypersphere-union,circular-prime,circular-square,circular-odd-power}
  --variant {radius,center}
  --r R                 nonsquare radius rank for center-spherical
  --format {json,csv}
  --out OUT
""",
    "verify": """\
usage: ffkakeya verify [-h] --file FILE --property
                       {radius,center,diff-cover,sum-cover,witness}
                       [--mode {witness,exhaustive}] [--budget BUDGET]
                       [--out OUT]

options:
  -h, --help            show this help message and exit
  --file FILE
  --property {radius,center,diff-cover,sum-cover,witness}
  --mode {witness,exhaustive}
  --budget BUDGET
  --out OUT
""",
    "count": """\
usage: ffkakeya count [-h] --p P [--k K] [--n N] --coeffs COEFFS --rhs RHS
                      [--method {closed,bruteforce,both}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --p P
  --k K
  --n N
  --coeffs COEFFS       comma-separated coefficient ranks
  --rhs RHS
  --method {closed,bruteforce,both}
  --out OUT
""",
    "bound": """\
usage: ffkakeya bound [-h] --q Q --n N [--out OUT]

options:
  -h, --help  show this help message and exit
  --q Q
  --n N
  --out OUT
""",
    "search": """\
usage: ffkakeya search [-h] --p P [--k K] --kind {radius,center}
                       [--method {exact,greedy}] [--limit LIMIT]
                       [--node-budget NODE_BUDGET] [--out OUT]

options:
  -h, --help            show this help message and exit
  --p P
  --k K
  --kind {radius,center}
  --method {exact,greedy}
  --limit LIMIT         largest q for --method exact; greedy ignores it
  --node-budget NODE_BUDGET
  --out OUT
""",
    "report": """\
usage: ffkakeya report [-h] --which
                       {radius-spherical,center-spherical,hypersphere-union,circular-prime,circular-square,circular-odd-power}
                       [--q-list Q_LIST] [--n-list N_LIST]
                       [--variant {radius,center,both}] [--r R] [--out OUT]

options:
  -h, --help            show this help message and exit
  --which {radius-spherical,center-spherical,hypersphere-union,circular-prime,circular-square,circular-odd-power}
  --q-list Q_LIST       comma-separated prime powers
  --n-list N_LIST       comma-separated dimensions
  --variant {radius,center,both}
  --r R
  --out OUT
""",
}


def run(*args, **kwargs):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, **kwargs)


def limit_memory():
    """Under 2 GB of address space: an allocation past it raises MemoryError."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


class TestConstruct:
    def test_json_output_parses_and_round_trips(self, tmp_path):
        out = tmp_path / "set.json"
        r = run("construct", "--p", "5", "--n", "2", "--which", "radius-spherical",
                "--out", str(out))
        assert r.returncode == 0 and r.stdout == ""
        data = json.loads(out.read_text())
        assert data["q"] == 5 and data["construction"] == "radius-spherical"
        assert data["size"] == len(data["ranks"]) == 13
        assert data["witnessValid"] is True

    def test_stdout_when_no_out_flag(self):
        r = run("construct", "--p", "3", "--n", "2", "--which", "radius-spherical")
        assert r.returncode == 0
        assert json.loads(r.stdout)["size"] == 6
        assert r.stdout.endswith("\n")

    def test_csv_format(self):
        r = run("construct", "--p", "7", "--which", "circular-prime",
                "--variant", "radius", "--format", "csv")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0].startswith("q,p,k,n,construction,variant,size")
        assert lines[1].split(",")[:7] == ["7", "7", "1", "1", "circular-prime", "radius", "4"]

    def test_rerun_is_byte_identical(self):
        a = run("construct", "--p", "3", "--k", "2", "--n", "3", "--which", "center-spherical")
        b = run("construct", "--p", "3", "--k", "2", "--n", "3", "--which", "center-spherical")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_even_characteristic_is_usage_error(self):
        r = run("construct", "--p", "2", "--n", "2", "--which", "radius-spherical")
        assert r.returncode == 2
        assert "error" in r.stderr

    def test_circular_rejects_dimension(self):
        r = run("construct", "--p", "5", "--n", "2", "--which", "circular-prime")
        assert r.returncode == 2

    def test_circular_prime_rejects_extension_field(self):
        r = run("construct", "--p", "3", "--k", "2", "--which", "circular-prime")
        assert r.returncode == 2

    def test_every_which_names_a_builder(self):
        for which in SPHERICAL + CIRCULAR:
            name = which.replace("-", "_")
            assert name in ffkakeya._HOMES["constructions"]
            assert callable(getattr(ffkakeya, name)), which

    def test_unknown_construction_is_argparse_error(self):
        r = run("construct", "--p", "3", "--n", "2", "--which", "nonsense")
        assert r.returncode == 2


class TestVerify:
    @pytest.fixture()
    def saved_set(self, tmp_path):
        path = tmp_path / "rs.json"
        run("construct", "--p", "5", "--n", "2", "--which", "radius-spherical",
            "--out", str(path))
        return path

    def test_witness_mode_passes(self, saved_set):
        r = run("verify", "--file", str(saved_set), "--property", "radius",
                "--mode", "witness")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["verdict"] is True and data["mode"] == "witness"
        assert data["witnessValid"] is True
        assert data["meetsLowerBound"] is True

    def test_exhaustive_mode_passes(self, saved_set):
        r = run("verify", "--file", str(saved_set), "--property", "radius")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["verdict"] is True
        assert data["exhaustiveValid"] is True

    def test_false_verdict_exits_one(self, saved_set, tmp_path):
        data = json.loads(saved_set.read_text())
        data["ranks"] = []
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps(data))
        r = run("verify", "--file", str(bad), "--property", "radius")
        assert r.returncode == 1
        assert json.loads(r.stdout)["verdict"] is False

    def test_tiny_budget_exits_three(self, saved_set):
        r = run("verify", "--file", str(saved_set), "--property", "radius",
                "--budget", "5")
        assert r.returncode == 3
        assert "budget" in r.stderr

    def test_negative_budget_is_usage_error(self, saved_set):
        r = run("verify", "--file", str(saved_set), "--property", "radius",
                "--budget", "-5")
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == "error: --budget must be nonnegative, got -5\n"

    def test_witness_property(self, saved_set):
        r = run("verify", "--file", str(saved_set), "--property", "witness")
        assert r.returncode == 0

    def test_file_without_witness_fails_witness_mode(self, saved_set, tmp_path):
        data = json.loads(saved_set.read_text())
        del data["witness"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(data))
        r = run("verify", "--file", str(bare), "--property", "radius",
                "--mode", "witness")
        assert r.returncode == 2

    def test_circular_covers(self, tmp_path):
        path = tmp_path / "circ.json"
        run("construct", "--p", "7", "--which", "circular-prime",
            "--variant", "radius", "--out", str(path))
        r = run("verify", "--file", str(path), "--property", "diff-cover")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["verdict"] is True and data["diffCoverMin"] == 3

    def test_cover_property_needs_dimension_one(self, saved_set):
        r = run("verify", "--file", str(saved_set), "--property", "diff-cover")
        assert r.returncode == 2

    def test_missing_file_is_usage_error(self):
        r = run("verify", "--file", "/nonexistent.json", "--property", "radius")
        assert r.returncode == 2


class TestMalformedSetFiles:
    """A corrupted set file is a usage error: exit 2, one line on stderr,
    no traceback, and never a verdict."""

    @pytest.fixture(scope="class")
    def radius7(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("r7") / "radius7.json"
        r = run("construct", "--p", "7", "--n", "4", "--which", "radius-spherical",
                "--out", str(path))
        assert r.returncode == 0
        return json.loads(path.read_text())

    def verify(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        return run("verify", "--file", str(path), "--property", "radius",
                   "--mode", "witness")

    def assert_usage_error(self, r):
        assert r.returncode == 2
        assert r.stdout == ""
        assert len(r.stderr.strip().splitlines()) == 1
        assert "Traceback" not in r.stderr

    def test_untouched_file_verifies(self, radius7, tmp_path):
        r = self.verify(tmp_path, radius7)
        assert r.returncode == 0 and json.loads(r.stdout)["verdict"] is True

    def test_negative_center_rank_is_not_wrapped(self, radius7, tmp_path):
        data = copy.deepcopy(radius7)
        assert data["witness"]["entries"]["1"]["center"] == [1, 0, 0, 0]
        data["witness"]["entries"]["1"]["center"] = [-6, 0, 0, 0]
        self.assert_usage_error(self.verify(tmp_path, data))
        r = run("verify", "--file", str(tmp_path / "bad.json"), "--property", "witness")
        self.assert_usage_error(r)

    def test_center_rank_beyond_q(self, radius7, tmp_path):
        data = copy.deepcopy(radius7)
        data["witness"]["entries"]["1"]["center"] = [99, 0, 0, 0]
        self.assert_usage_error(self.verify(tmp_path, data))

    def test_file_without_p(self, radius7, tmp_path):
        data = copy.deepcopy(radius7)
        del data["p"]
        self.assert_usage_error(self.verify(tmp_path, data))

    def test_witness_entry_without_center(self, radius7, tmp_path):
        data = copy.deepcopy(radius7)
        del data["witness"]["entries"]["3"]["center"]
        self.assert_usage_error(self.verify(tmp_path, data))

    @pytest.mark.parametrize("edit", [
        lambda d: d["witness"]["entries"]["2"].update(center=[2, 0, 0]),
        lambda d: d["witness"]["entries"]["2"].update(radius=1.0),
        lambda d: d["witness"].pop("entries"),
        lambda d: d.update(n=[4]),
        lambda d: d["ranks"].append("5"),
    ], ids=["short-center", "float-radius", "no-entries", "list-n", "string-rank"])
    def test_other_corruptions(self, radius7, tmp_path, edit):
        data = copy.deepcopy(radius7)
        edit(data)
        self.assert_usage_error(self.verify(tmp_path, data))


    @pytest.mark.parametrize("edit", [
        lambda d: d["witness"].update(kind="bogus"),
        lambda d: d["witness"]["entries"].update({"1": {"center": 1, "radius": 1}}),
    ], ids=["unknown-kind", "circle-entry"])
    def test_witness_not_of_its_kind_in_every_mode(self, radius7, tmp_path, edit):
        # a verdict, even the exhaustive one that ignores the witness, would
        # certify a file whose certificate cannot be read
        data = copy.deepcopy(radius7)
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        for prop, mode in [("radius", "witness"), ("center", "witness"), ("witness", "witness"),
                           ("radius", "exhaustive"), ("center", "exhaustive"),
                           ("diff-cover", "exhaustive"), ("sum-cover", "exhaustive")]:
            self.assert_usage_error(run("verify", "--file", str(path), "--property", prop,
                                        "--mode", mode))

    @pytest.mark.parametrize("edit", [
        lambda d: d["witness"].update(kind="hypersphere"),
        lambda d: d["witness"]["entries"]["1"].update(direction=[1, 0, 0, 0]),
    ], ids=["hypersphere-kind", "sphere-with-direction"])
    def test_sphere_entries_are_not_hyperspheres(self, radius7, tmp_path, edit):
        data = copy.deepcopy(radius7)
        edit(data)
        self.assert_usage_error(self.verify(tmp_path, data))

    def test_deeply_nested_file(self, tmp_path):
        # nesting past the recursion limit is malformed input, not a false
        # verdict (exit 1)
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        r = run("verify", "--file", str(path), "--property", "radius", "--mode", "witness")
        self.assert_usage_error(r)
        assert "nests too deeply" in r.stderr


class TestHugeDimension:
    """An n far past the point cap exits 3 at once: q^n is never formed."""

    HUGE = 10 ** 9
    ERROR = f"error: q^n = 3^{HUGE} exceeds the point cap 2^40\n"

    def test_set_file_with_huge_n(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"q": 3, "p": 3, "k": 1, "n": self.HUGE, "ranks": [1]}))
        r = run("verify", "--file", str(path), "--property", "radius", timeout=20)
        assert r.returncode == 3 and r.stdout == "" and r.stderr == self.ERROR

    def test_construct_with_huge_n(self):
        r = run("construct", "--p", "3", "--n", str(self.HUGE), "--which", "radius-spherical",
                timeout=20)
        assert r.returncode == 3 and r.stdout == "" and r.stderr == self.ERROR


class TestCircularBeyondTableCap:
    @pytest.mark.parametrize("variant", ["radius", "center"])
    def test_p_10007(self, variant):
        r = run("construct", "--p", "10007", "--which", "circular-prime",
                "--variant", variant)
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["witnessValid"] is True and data["boundMet"] is True


class TestBeyondTheTableCap:
    """q past 4096, the old dense-table cap: every path reads length-q arrays
    and q x q index arrays, never a dense operation table."""

    @pytest.mark.parametrize("args,count", [
        (("--p", "4099", "--coeffs", "1,2", "--rhs", "3"), 4098),
        (("--p", "3", "--k", "8", "--coeffs", "1", "--rhs", "3"), 2),
    ], ids=["4099", "3^8"])
    def test_count_both_methods(self, args, count):
        r = run("count", *args, "--method", "both", preexec_fn=limit_memory)
        assert r.returncode == 0 and r.stderr == ""
        data = json.loads(r.stdout)
        assert data["closed"] == data["bruteforce"] == count and data["agree"] is True

    def test_center_spherical_at_4099(self):
        r = run("construct", "--p", "4099", "--n", "2", "--which", "center-spherical",
                "--format", "csv", preexec_fn=limit_memory)
        assert r.returncode == 0 and r.stderr == ""
        row = r.stdout.splitlines()[1].split(",")
        # q (q + 1) / 2 points: for q = 3 mod 4 and a nonsquare r, y^2 + z^2 = r
        # has q + 1 solutions, two for each y that leaves r - y^2 a square
        assert row[:7] == ["4099", "4099", "1", "2", "center-spherical", "", str(4099 * 2050)]
        assert row[-2:] == ["true", "true"]

    @pytest.mark.parametrize("args,size", [
        (("count", "--p", "100003", "--coeffs", "1,2", "--rhs", "3"), 100003 * 50002),
        (("construct", "--p", "20011", "--n", "2", "--which", "radius-spherical"), 20011 ** 2),
        (("construct", "--p", "20011", "--n", "2", "--which", "center-spherical"), 20011 ** 2),
    ], ids=["count", "radius", "center"])
    def test_array_cap_exits_three_at_once(self, args, size):
        # no address-space limit: the cap is checked before the q x q arrays exist
        r = run(*args, timeout=20)
        assert r.returncode == 3 and r.stdout == ""
        assert r.stderr == (f"error: an array of {size} elements of F_{args[2]} "
                            f"exceeds the array cap {1 << 26}\n")

    def test_out_of_memory_exits_three(self):
        # the 4099^3-byte mask is within the point and array caps
        r = run("construct", "--p", "4099", "--n", "3", "--which", "center-spherical",
                preexec_fn=limit_memory)
        assert r.returncode == 3 and r.stdout == ""
        assert r.stderr.startswith("error: out of memory: ")
        assert len(r.stderr.splitlines()) == 1


class TestCount:
    def test_both_methods_agree(self):
        r = run("count", "--p", "3", "--k", "2", "--coeffs", "1,1,1", "--rhs", "2")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["agree"] is True
        assert data["closed"] == data["bruteforce"] == 90

    def test_single_method(self):
        r = run("count", "--p", "5", "--coeffs", "1,1,1,1", "--rhs", "0",
                "--method", "closed")
        data = json.loads(r.stdout)
        assert data["closed"] == 145 and "bruteforce" not in data

    def test_zero_coefficient_is_usage_error(self):
        r = run("count", "--p", "5", "--coeffs", "1,0", "--rhs", "1")
        assert r.returncode == 2

    def test_n_mismatch_is_usage_error(self):
        r = run("count", "--p", "5", "--n", "3", "--coeffs", "1,1", "--rhs", "1")
        assert r.returncode == 2

    def test_closed_count_past_the_digit_cap_exits_three(self):
        # 3^9099 has 4342 digits, past what JSON may write; 3^8999 has 4294
        r = run("count", "--p", "3", "--coeffs", ",".join(["1"] * 9100), "--rhs", "1",
                "--method", "closed")
        assert r.returncode == 3 and r.stdout == ""
        assert r.stderr == "error: the closed count at q^n = 3^9100 exceeds 4300 digits\n"
        r = run("count", "--p", "3", "--coeffs", ",".join(["1"] * 9000), "--rhs", "1",
                "--method", "closed")
        assert r.returncode == 0 and len(str(json.loads(r.stdout)["closed"])) == 4294
        # the cap is the command's: the library still returns the count
        count = ffkakeya.diagonal_count_closed(ffkakeya.ScalarField(3), ffkakeya.DiagonalEq(
            (1,) * 9100, 1))
        assert count >= 10 ** 4300 and abs(count - 3 ** 9099) == 3 ** 4549

    @pytest.mark.parametrize("method", ["bruteforce", "both"])
    def test_direct_count_at_3_to_the_20(self, method):
        # under 2 GB of address space, where a q^n enumeration died with exit 1
        r = run("count", "--p", "3", "--coeffs", ",".join(["1"] * 20), "--rhs", "1",
                "--method", method, preexec_fn=limit_memory)
        assert r.returncode == 0 and r.stderr == ""
        data = json.loads(r.stdout)
        assert data["bruteforce"] == 1162241784
        assert data.get("agree", True) is True

    @pytest.mark.parametrize("method", ["bruteforce", "both"])
    def test_direct_count_beyond_the_point_cap_exits_three(self, method):
        r = run("count", "--p", "3", "--coeffs", ",".join(["1"] * 26), "--rhs", "1",
                "--method", method)
        assert r.returncode == 3 and r.stdout == ""
        assert r.stderr == "error: q^n = 3^26 exceeds the point cap 2^40\n"

    def test_closed_count_beyond_the_point_cap(self):
        r = run("count", "--p", "3", "--coeffs", ",".join(["1"] * 26), "--rhs", "1",
                "--method", "closed")
        assert r.returncode == 0
        assert json.loads(r.stdout)["closed"] == 3 ** 25 + 3 ** 12


class TestRankArguments:
    """An element rank outside [0, q) on the command line is a usage error:
    exit 2, one line on stderr, nothing on stdout. numpy would otherwise
    wrap -1 to q - 1 or raise IndexError."""

    @pytest.mark.parametrize("args", [
        ("construct", "--p", "7", "--n", "3", "--which", "center-spherical", "--r", "99"),
        ("construct", "--p", "7", "--n", "3", "--which", "center-spherical", "--r", "-1"),
        ("count", "--p", "7", "--coeffs", "1,2", "--rhs", "9"),
        ("count", "--p", "7", "--coeffs", "1,2", "--rhs", "-1"),
        ("count", "--p", "7", "--coeffs", "1,9", "--rhs", "1"),
    ], ids=["r-99", "r-minus-1", "rhs-9", "rhs-minus-1", "coeff-9"])
    def test_exits_two(self, args):
        r = run(*args)
        assert r.returncode == 2
        assert r.stdout == ""
        assert len(r.stderr.strip().splitlines()) == 1
        assert "Traceback" not in r.stderr


class TestBound:
    def test_spherical(self):
        r = run("bound", "--q", "5", "--n", "4")
        data = json.loads(r.stdout)
        assert data == {"branch": "n>=4", "ceiling": 300, "n": 4, "q": 5,
                        "value": "300"}

    def test_circular(self):
        r = run("bound", "--q", "7", "--n", "1")
        data = json.loads(r.stdout)
        assert data == {"diffCoverMin": 3, "n": 1, "q": 7, "sumCoverMin": 4}

    def test_invalid_q(self):
        assert run("bound", "--q", "12", "--n", "2").returncode == 2

    @pytest.mark.parametrize("q", [1000000000000000003, 3 ** 100])
    def test_large_prime_power_answers_at_once(self, q):
        # the prime once hung in trial division up to its square root
        r = run("bound", "--q", str(q), "--n", "4", timeout=10)
        value = (q**4 + q**3 - 2 * q**2 - q**3 + q**2) // 2
        assert r.returncode == 0
        assert json.loads(r.stdout)["value"] == str(value)

    def test_report_with_a_large_prime_meets_the_point_cap(self):
        r = run("report", "--which", "radius-spherical", "--q-list", "1000000000000000003",
                "--n-list", "2", timeout=10)
        assert r.returncode == 3 and "point cap" in r.stderr

    @pytest.mark.parametrize("n", ["1", "4"])
    def test_prime_past_2_to_the_64_exits_three(self, n):
        q = 2 ** 64 + 13
        r = run("bound", "--q", str(q), "--n", n, timeout=10)
        assert r.returncode == 3 and r.stdout == ""
        assert r.stderr == f"error: {q} is past 2^64, where primality is not certified\n"

    @pytest.mark.parametrize("q", [10 ** 4299 + 7, 2 ** 11213 - 1], ids=["composite", "prime"])
    def test_huge_q_exits_three_at_once(self, q):
        # no primality test past 2^64: the 4300-digit composite took 9 s to
        # exit 2, and the 3376-digit Mersenne prime 38 s to exit 3
        r = run("bound", "--q", str(q), "--n", "2", timeout=10)
        assert r.returncode == 3 and r.stdout == ""
        assert r.stderr == f"error: {q} is past 2^64, where primality is not certified\n"

    @pytest.mark.parametrize("n", [5000, 9012])
    def test_answers_up_to_the_digit_cap(self, n):
        r = run("bound", "--q", "3", "--n", str(n))
        value = (3**n + 3**(n - 1) - 2 * 3**(n - 2) - 3**((n + 3) // 2) + 3**((n + 1) // 2)) // 2
        assert r.returncode == 0
        assert json.loads(r.stdout)["value"] == str(value)

    @pytest.mark.parametrize("digits", [None, "0"], ids=["default", "no-str-limit"])
    @pytest.mark.parametrize("n", [9013, 20000, 10 ** 9])
    def test_past_the_digit_cap_exits_three(self, n, digits):
        # a run that forms 3^(10^9) never ends, with or without Python's str limit
        env = dict(os.environ)
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if digits is not None:
            env["PYTHONINTMAXSTRDIGITS"] = digits
        r = run("bound", "--q", "3", "--n", str(n), env=env, timeout=20)
        assert r.returncode == 3 and r.stdout == ""
        assert r.stderr == f"error: the bound at q^n = 3^{n} exceeds 4300 digits\n"


class TestSearch:
    def test_exact(self):
        r = run("search", "--p", "7", "--kind", "radius")
        data = json.loads(r.stdout)
        assert data["minimalSize"] == 3 and data["certified"] is True

    def test_greedy(self):
        r = run("search", "--p", "5", "--k", "2", "--kind", "center",
                "--method", "greedy")
        data = json.loads(r.stdout)
        assert data["certified"] is False and data["foundSize"] >= 8

    def test_limit_exceeded_exits_three(self):
        assert run("search", "--p", "17", "--kind", "radius").returncode == 3

    @pytest.mark.parametrize("kind", ["radius", "center"])
    def test_greedy_node_budget_exits_three(self, kind):
        args = ("search", "--p", "13", "--kind", kind, "--method", "greedy")
        nodes = json.loads(run(*args).stdout)["nodesExplored"]
        assert json.loads(run(*args, "--node-budget", str(nodes)).stdout)["nodesExplored"] == nodes
        r = run(*args, "--node-budget", str(nodes - 1))
        assert r.returncode == 3 and r.stdout == ""
        assert r.stderr == f"error: estimated work {nodes} exceeds budget {nodes - 1}\n"

    @pytest.mark.parametrize("flag", ["--limit", "--node-budget"])
    def test_negative_bound_is_usage_error(self, flag):
        r = run("search", "--p", "7", "--kind", "radius", flag, "-1")
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == f"error: {flag} must be nonnegative, got -1\n"

    def test_raised_limit_succeeds(self):
        r = run("search", "--p", "17", "--kind", "radius", "--limit", "17")
        assert r.returncode == 0
        assert json.loads(r.stdout)["certified"] is True


class TestReport:
    def test_sweep_rows_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ("report", "--which", "circular-prime", "--q-list", "7,3,5")
        assert run(*args, "--out", str(out1)).returncode == 0
        assert run(*args, "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert len(lines) == 1 + 6  # header + 3 primes x 2 variants
        qs = [line.split(",")[0] for line in lines[1:]]
        assert qs == ["3", "3", "5", "5", "7", "7"]  # sorted by q

    def test_spherical_sweep(self):
        r = run("report", "--which", "radius-spherical", "--q-list", "3,5",
                "--n-list", "2,3")
        lines = r.stdout.splitlines()
        assert len(lines) == 5
        row = lines[1].split(",")
        assert row[0] == "3" and row[3] == "2"
        assert row[11] == "true" and row[12] == "true"

    def test_twelve_row_spherical_sweep_meets_bound_everywhere(self):
        r = run("report", "--which", "radius-spherical", "--q-list", "3,5,7,9",
                "--n-list", "2,3,4")
        lines = r.stdout.splitlines()
        assert len(lines) == 13  # header + 12 rows
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[11] == "true" and cells[12] == "true"

    def test_empty_q_list_gives_header_only(self):
        r = run("report", "--which", "circular-prime", "--q-list", "")
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            "q,p,k,n,construction,variant,size,mainTerm1,mainTerm2,mainTerm3,"
            "bound,boundMet,witnessValid"]

    def test_even_q_without_dimensions_is_usage_error(self):
        # each q is decomposed before its rows, so an empty --n-list checks it too
        r = run("report", "--which", "radius-spherical", "--q-list", "10", "--n-list", "")
        assert r.returncode == 2
        assert r.stderr == "error: 10 is even\n"

    def test_circular_prime_at_a_million_and_three(self):
        code, out = call(["report", "--which", "circular-prime", "--q-list", "1000003",
                          "--variant", "both"])
        assert code == 0 and out.decode().splitlines()[1:] == [
            "1000003,1000003,1,1,circular-prime,radius,2000,2001,,,1001,true,true",
            "1000003,1000003,1,1,circular-prime,center,2000,2001,,,1415,true,true"]

    def test_single_variant(self):
        r = run("report", "--which", "circular-square", "--q-list", "9,25",
                "--variant", "radius")
        lines = r.stdout.splitlines()
        assert len(lines) == 3
        assert all(line.split(",")[5] == "radius" for line in lines[1:])


class TestHelp:
    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_is_pinned(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            build_parser().parse_args([command, "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out == HELP[command]


# `python -m ffkakeya <args>` through runpy, with an atexit handler that
# writes the collector's freeze count to the file the first argument names
FREEZE_PROBE = """\
import atexit, gc, runpy, sys
from pathlib import Path
path = Path(sys.argv.pop(1))
atexit.register(lambda: path.write_text(str(gc.get_freeze_count())))
runpy.run_module("ffkakeya", run_name="__main__", alter_sys=True)
"""

# pinned invocations that run as processes too: every kind of output and
# an exit code other than 0
PROCESS_PINS = ("construct radius-spherical 7^1 n=4 json",
                "construct hypersphere-union 3^1 n=2 csv", "verify holed radius exhaustive",
                "verify diff-cover", "verify budget 1000", "report circular", "count closed",
                "bound spherical", "search exact")


def pinned_argv(name, directory) -> list:
    """The pinned invocation's argv, reading its set files from directory."""
    return [a.replace("{dir}", str(directory)) for a in dict(INVOCATIONS)[name]]


class TestModuleEntry:
    @pytest.fixture(scope="class")
    def set_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("sets")
        write_set_files(directory)
        return directory

    def test_no_arguments_shows_usage(self):
        r = run()
        assert r.returncode == 2
        assert "usage" in r.stderr

    @pytest.mark.parametrize("args,code", [
        (["bound", "--q", "9", "--n", "4"], 0),
        (["bound", "--help"], 0),  # argparse's SystemExit
        (["verify", "--file", "{dir}/holed.json", "--property", "radius"], 1),
        (["bound", "--q", "9"], 2),  # argparse's usage error
        (["bound", "--q", "12", "--n", "2"], 2),  # a KakeyaError
        (["search", "--p", "17", "--kind", "radius"], 3),
    ])
    def test_the_process_exits_with_the_collector_frozen(self, args, code, set_dir, tmp_path):
        probe = tmp_path / "freeze_count"
        argv = [a.replace("{dir}", str(set_dir)) for a in args]
        r = subprocess.run([sys.executable, "-c", FREEZE_PROBE, str(probe), *argv],
                           capture_output=True, text=True)
        assert r.returncode == code
        assert int(probe.read_text()) > 0

    def test_main_in_process_leaves_the_collector_alone(self, set_dir, capsys):
        for name in PROCESS_PINS:
            call(pinned_argv(name, set_dir))
            assert gc.get_freeze_count() == 0 and gc.isenabled(), name
        for argv in (["bound", "--help"], ["bound", "--q", "9"]):
            with pytest.raises(SystemExit):
                ffkakeya.cli.main(argv)
            assert gc.get_freeze_count() == 0 and gc.isenabled(), argv
        capsys.readouterr()

    def test_processes_print_the_in_process_bytes(self, set_dir):
        for name in PROCESS_PINS:
            argv = pinned_argv(name, set_dir)
            r = subprocess.run(CMD + argv, capture_output=True)
            code, stdout = call(argv)
            assert (r.returncode, r.stdout) == (code, stdout), name
            assert (code, hashlib.sha256(stdout).hexdigest()) == DIGESTS[name], name

    def test_an_out_file_is_whole_at_exit(self, tmp_path):
        name = "construct radius-spherical 7^1 n=4 json"
        out = tmp_path / "set.json"
        r = run(*pinned_argv(name, tmp_path), "--out", str(out))
        assert (r.returncode, r.stdout) == (0, "")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name][1]

    def test_the_script_runs_the_entry_that_python_m_runs(self):
        # read as text: Python 3.10 has no tomllib
        main = ast.parse(Path(ffkakeya.__file__).with_name("__main__.py").read_text())
        (entry,) = [node for node in main.body if isinstance(node, ast.ImportFrom)]
        calls = [node.func.id for node in ast.walk(main) if isinstance(node, ast.Call)]
        assert entry.level == 1 and calls == [alias.name for alias in entry.names]
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        scripts = pyproject.partition("[project.scripts]\n")[2].partition("\n[")[0]
        assert scripts.strip() == f'ffkakeya = "ffkakeya.{entry.module}:{calls[0]}"'
