"""The command line's bytes, pinned: a fixed session of cli.main calls run
in-process, each checked by the sha256 of its stdout and its exit code.

The digests were recorded from the output this library gave before the
level-table refactor, so any change to what a subcommand prints shows up
here by name.  Set files for verify are written by construct --out into a
temporary directory, and one is holed by a single point on a witness
sphere; neither the directory nor its paths reach stdout.
"""

import contextlib
import hashlib
import io
import json

from ffkakeya import cli

SPHERICAL_CASES = [("3", "1", "2"), ("5", "1", "3"), ("7", "1", "4"), ("3", "2", "4")]

# (name, argv); "{dir}" is the directory of the set files
INVOCATIONS = [
    (f"construct {which} {p}^{k} n={n} {fmt}",
     ["construct", "--p", p, "--k", k, "--n", n, "--which", which, "--format", fmt])
    for which in ("radius-spherical", "center-spherical", "hypersphere-union")
    for p, k, n in SPHERICAL_CASES
    for fmt in ("json", "csv")
] + [
    ("verify radius witness", ["verify", "--file", "{dir}/radius.json",
                               "--property", "radius", "--mode", "witness"]),
    ("verify center witness", ["verify", "--file", "{dir}/center.json",
                               "--property", "center", "--mode", "witness"]),
    ("verify center by a radius witness", ["verify", "--file", "{dir}/radius.json",
                                           "--property", "center", "--mode", "witness"]),
    ("verify holed radius witness", ["verify", "--file", "{dir}/holed.json",
                                     "--property", "radius", "--mode", "witness"]),
    ("verify hypersphere witness", ["verify", "--file", "{dir}/hypersphere.json",
                                    "--property", "witness"]),
    ("verify radius exhaustive", ["verify", "--file", "{dir}/radius.json",
                                  "--property", "radius"]),
    ("verify radius set, center exhaustive", ["verify", "--file", "{dir}/radius.json",
                                              "--property", "center"]),
    ("verify center exhaustive", ["verify", "--file", "{dir}/center.json",
                                  "--property", "center"]),
    ("verify center set, radius exhaustive", ["verify", "--file", "{dir}/center.json",
                                              "--property", "radius"]),
    ("verify holed radius exhaustive", ["verify", "--file", "{dir}/holed.json",
                                        "--property", "radius"]),
    ("verify radius 9^3 exhaustive", ["verify", "--file", "{dir}/radius9.json",
                                      "--property", "radius", "--mode", "exhaustive"]),
    ("verify budget 1000", ["verify", "--file", "{dir}/radius.json",
                            "--property", "radius", "--budget", "1000"]),
    ("verify diff-cover", ["verify", "--file", "{dir}/circular.json",
                           "--property", "diff-cover"]),
    ("report radius", ["report", "--which", "radius-spherical",
                       "--q-list", "3,5,9", "--n-list", "2,3,4"]),
    ("report center", ["report", "--which", "center-spherical",
                       "--q-list", "3,7", "--n-list", "2,5"]),
    ("report hypersphere", ["report", "--which", "hypersphere-union",
                            "--q-list", "3,5", "--n-list", "3,4"]),
    ("report circular", ["report", "--which", "circular-prime", "--q-list", "5,7,11"]),
    ("count both", ["count", "--p", "5", "--coeffs", "1,1,1", "--rhs", "2"]),
    ("count closed", ["count", "--p", "3", "--k", "2", "--coeffs", "1,2,1,1",
                      "--rhs", "0", "--method", "closed"]),
    ("bound spherical", ["bound", "--q", "9", "--n", "4"]),
    ("bound circular", ["bound", "--q", "7", "--n", "1"]),
    ("search exact", ["search", "--p", "13", "--kind", "radius"]),
    ("search greedy", ["search", "--p", "11", "--kind", "center", "--method", "greedy"]),
]

# name -> (exit code, sha256 of stdout)
DIGESTS = {
    "construct radius-spherical 3^1 n=2 json":
        (0, "2986f1cdbacb6255912294ff74f81a3461c514d4be82f7e54e310275440e33d1"),
    "construct radius-spherical 3^1 n=2 csv":
        (0, "ea4d2334261c13daf9c5d3ba6bcf2d35b3b4a21640f5038184134252d6375080"),
    "construct radius-spherical 5^1 n=3 json":
        (0, "7baac3c7349abf93d57e453ce59b36e893664316d8b455ca75832ff1682c3047"),
    "construct radius-spherical 5^1 n=3 csv":
        (0, "ec4a06272cec3fb63f92747ab4d211e2e562d08b35a2035d5eb674f586a332fa"),
    "construct radius-spherical 7^1 n=4 json":
        (0, "52f0b22bd0753a6d5dd33b3aab32ece9f54757d3f26868893f58fd75fe071751"),
    "construct radius-spherical 7^1 n=4 csv":
        (0, "da064ddc14192c4af96e114ac9b501e60912f2fdb1d6b8f5b07121a517134575"),
    "construct radius-spherical 3^2 n=4 json":
        (0, "4c0e3ab22911f65ee2c32062ddb86e61e2d0b63597553d3a4529b6a09940577f"),
    "construct radius-spherical 3^2 n=4 csv":
        (0, "b7300b24ae9e4bdf58fd834f7fb0e20cca9cacb31b2140d0c09bf6ae3d6666e6"),
    "construct center-spherical 3^1 n=2 json":
        (0, "6b409e38334fca5086e8eb7740aaeeb33bd4af4b82883b48f296288a1ee1b716"),
    "construct center-spherical 3^1 n=2 csv":
        (0, "0966124aee391846209f750dbfd884e2e84d125f0f90f7fd2d2dc40eb5a89afd"),
    "construct center-spherical 5^1 n=3 json":
        (0, "4afc1a2b33e49bfcee8874dbacf4614c4c04b59e6027ac860845c62e8507cc37"),
    "construct center-spherical 5^1 n=3 csv":
        (0, "ba444bf3c1c7e7c3629687d217886342b6f53179d301dc48aaeec9ca81dbaa10"),
    "construct center-spherical 7^1 n=4 json":
        (0, "4aaeebb023c3d9d7b65f2fb4ab4770f8b1b9b8d52a8e436846b654ff72a3fcdf"),
    "construct center-spherical 7^1 n=4 csv":
        (0, "697eb46dc4ac7204f6696b6ed29d6245f7b9f98e3322776b15341b9c53fba5e9"),
    "construct center-spherical 3^2 n=4 json":
        (0, "06983f9b4bddcd2dc7d99c3523be01454680d066a5cca5c37c597069906d7620"),
    "construct center-spherical 3^2 n=4 csv":
        (0, "8ee593f0dd151d5c51653ea7fa0d8bf80311510f623e169715c57bd4593be615"),
    "construct hypersphere-union 3^1 n=2 json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "construct hypersphere-union 3^1 n=2 csv":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "construct hypersphere-union 5^1 n=3 json":
        (0, "8f814d538d48c238c9cdeb907d7d9cccb6cda8e8ac357f280dae874de0d9b627"),
    "construct hypersphere-union 5^1 n=3 csv":
        (0, "9d6433094c235acb1dd0ff3b13d6dd3a2b6fd5f9e0f77d42f57b71237212ce44"),
    "construct hypersphere-union 7^1 n=4 json":
        (0, "3cff5a258222b42d987e407ae038632bdf0a0f9d66782cc2a8bf6f4e0acbb645"),
    "construct hypersphere-union 7^1 n=4 csv":
        (0, "3df7a98caa39e456f3898ffbea555de91565d3ff53d683a27bfc885545e6b59d"),
    "construct hypersphere-union 3^2 n=4 json":
        (0, "0493357a2a16b127b2fe9d31da7435f6e69c429c9d58a90d94f7b6c1f14242ad"),
    "construct hypersphere-union 3^2 n=4 csv":
        (0, "3775a81cf6e92d0c57aef1e93790013c1fb3b09b5819377db1811350163ef2f3"),
    "verify radius witness":
        (0, "646d99b9b680d7b86e625db4240dcddd7fdd03877de9dd650bb69851c04bcfba"),
    "verify center witness":
        (0, "4554d7373aec6a139c7eb71c7050d1662558b0a848e83f2510e61f919e8e31a8"),
    "verify center by a radius witness":
        (1, "5386550c706685b870330e96589d9229947e833eff34832f27606f92c5593ad0"),
    "verify holed radius witness":
        (1, "ddb00150ce2d616afed3c40d28f1c7fbe42755151cb28c90d3fee7413b954bc1"),
    "verify hypersphere witness":
        (0, "a5835286db790cfa5a97715b6f0c16e6df474384f5a6a0cbdcc1dbf0a65863ab"),
    "verify radius exhaustive":
        (0, "03ef4c44e8a0489402213fe40037e1b064a7e35f260c685d84ddd9f609e77cb6"),
    "verify radius set, center exhaustive":
        (1, "c7ed0c1a98f7f7af2da6b61bc4af77676e915f14306c565e52a731c7775bf004"),
    "verify center exhaustive":
        (0, "192dd9ba520d6d6335c0fb90a5c579be7b63d0c7696b0ed1ed0ba550b3469c24"),
    "verify center set, radius exhaustive":
        (1, "2481250b9388b37bf9eb92994fc3e2113e45d55e3d1c3821ad1df2147f21c764"),
    "verify holed radius exhaustive":
        (1, "66425ada7ecaecaa29c0a39c71a520a6d88a4b905e4849997a2748baf3f9c5a7"),
    "verify radius 9^3 exhaustive":
        (0, "4e72d6cbdd628cb8fae58c2af11f50014faad3d408d77f507239d8d2a38e1c4a"),
    "verify budget 1000":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify diff-cover":
        (0, "0ca1e89e45b269ac92e85fab99611bdc29f2f643e016efadfec9b074f4ace39d"),
    "report radius":
        (0, "1f4c033a778139a2160b8231a79322812a785a93891d59a30812769d5a7e9ff6"),
    "report center":
        (0, "4e299ccd8be0dc62deefd4bfe07ab243e444562cdebdaf7896503fedf2b93d03"),
    "report hypersphere":
        (0, "ea89901cd376acc8570b93ccf61f7e905ddf66d58cb691eb66e198af09215d46"),
    "report circular":
        (0, "4418a0b7a790902557893523df6266295d3eda4b2f8a08cdc1e46ac30e52440a"),
    "count both":
        (0, "4c9e0e1ad35b4f4248446888a26fc3585a9bc6ac7033fe7634ef713912d59f02"),
    "count closed":
        (0, "f376268653516ea77aa6d207f8ecd533cc929cdffb2b04236e6ddbd9aa1fc3fe"),
    "bound spherical":
        (0, "65baaa9cb28e1088da89005efb0f3020d07d7d148c41658725662e9a10bd9f3b"),
    "bound circular":
        (0, "caf4def226c5949cad097b0562d4ae9ef478016670d61ceb56ff7b1a00cc4aa9"),
    "search exact":
        (0, "52eb8fc0343ccd5147624d3a3f40b80ef6729fb39ef80e400ff5bb9f3bec0dc7"),
    "search greedy":
        (0, "b8e0c605de8fdb37194c002fc23eef696b96afc2f78014d435d0b010ed5451d5"),
}


def call(argv) -> tuple[int, bytes]:
    """Exit code and stdout of one in-process cli.main call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue().encode()


def write_set_files(directory) -> None:
    """The set files the verify calls read, built through construct --out."""
    for name, which, p, k, n in [("radius", "radius-spherical", 5, 1, 3),
                                 ("center", "center-spherical", 5, 1, 3),
                                 ("hypersphere", "hypersphere-union", 5, 1, 3),
                                 ("radius9", "radius-spherical", 3, 2, 3)]:
        assert call(["construct", "--p", str(p), "--k", str(k), "--n", str(n),
                     "--which", which, "--out", f"{directory}/{name}.json"]) == (0, b"")
    assert call(["construct", "--p", "11", "--which", "circular-prime",
                 "--out", f"{directory}/circular.json"]) == (0, b"")
    # the radius set less the origin, on the witness sphere of radius 1
    data = json.loads((directory / "radius.json").read_text())
    data["ranks"].remove(0)
    (directory / "holed.json").write_text(json.dumps(data))


def session_digests(directory) -> dict:
    write_set_files(directory)
    digests = {}
    for name, argv in INVOCATIONS:
        code, stdout = call([a.replace("{dir}", str(directory)) for a in argv])
        digests[name] = (code, hashlib.sha256(stdout).hexdigest())
    return digests


def test_every_invocation_prints_its_pinned_bytes(tmp_path):
    assert len({name for name, _ in INVOCATIONS}) == len(INVOCATIONS)
    got = session_digests(tmp_path)
    assert set(got) == set(DIGESTS)
    for name, want in DIGESTS.items():
        assert got[name] == want, name
