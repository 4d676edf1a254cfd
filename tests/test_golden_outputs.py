"""Golden outputs: the exit code and the sha256 of stdout of fixed commands.

Every subcommand in both formats, a refused build included.  A change
meant to keep the outputs byte-identical must pass this unchanged; a
change meant to alter an output updates its digest on purpose.  The same
outputs must come out when nothing but the substitution sweep may solve a
Bezout pair, and, for `dual`, when no polynomial may be divided.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from cyclochar import cli, numth, polyring, verify

GOLDEN = [
    ("build --q 4 --k 3 --e1 2 --e2 5 --format json", 0,
     "3e5fd4c1d0643bca513b106020a861526c462ac9155caf1ab593d19237afb68e"),
    ("build --q 4 --k 3 --e1 2 --e2 5 --format text", 0,
     "40d58899249853f60c97751f66bb6972c6c18068a80c77ba37ca1fda5bc342d4"),
    ("build --q 16 --k 3 --e1 1 --e2 11 --format json", 0,
     "2afa00a3e9eb7076c81d4cf4e2d411b9e355ec9a10bb1dcfd438c7724d8c45ad"),
    ("build --q 16 --k 3 --e1 1 --e2 11 --format text", 0,
     "837f9c90a42ee6542053ae69f58017e5eddce2aa886dc3fe107f5ac9b667683a"),
    # q = 2: the zero dual of (2,2), and d-perp = 4 at (2,6)
    ("build --q 2 --k 2 --e1 0 --e2 1 --format json", 0,
     "946beb15a6b1d049e99daefacdfdc21c78a35e2a7dde29c0a69f04b295ed9f9e"),
    ("build --q 2 --k 2 --e1 0 --e2 1 --format text", 0,
     "62fbfe104c44599eac172ba7f286555909f7f7fa2c53b5e0213f21c7e84e6013"),
    ("build --q 2 --k 6 --e1 0 --e2 1 --format json", 0,
     "7cf78e48502544b6a78b72d6dd7da86221d782fa6ceae5e4a5c59bf09198fbe2"),
    ("build --q 2 --k 6 --e1 0 --e2 1 --format text", 0,
     "293254e6407963fbf55f7f5050dda7add4862b0eff94f9a6a667091f541b937b"),
    ("build --q 4 --k 3 --e1 0 --e2 3 --format json", 2,
     "e20851d2c0a23360c9a335c052d951b5390cf8d6cb15b0df066b5212f19df593"),
    ("build --q 4 --k 3 --e1 0 --e2 3 --format text", 2,
     "f8d8647f815ce81831adb42d04e125113bfcc933bf4b213e45f555f2b40c37ba"),
    ("verify --q 2..4 --k 3 --format json", 0,
     "3a319acec76acfae774f5e85dbbd61f2f703f591f8f68c2c6c4f634604e2c7e3"),
    ("verify --q 2..4 --k 3 --format text", 0,
     "12c466120c7d8ed98e072a941f290ac7176af0fb156e1c9562e951ffbad9fa4f"),
    ("enumerate --q 3 --k 4 --format json", 0,
     "805eb3a837c49a7d2964ab7f71487ae3e4e4a1ce32eab04285d94aab3fe15446"),
    ("enumerate --q 3 --k 4 --format text", 0,
     "59fe002b6ec8e418dc73c9036b8399b4509c5bdfdef125e6ed40cc74ec4f1ca8"),
    ("charsum --q 4 --k 3 --e1 2 --e2 5 --a 3 --b 7 --format json", 0,
     "596757db34924ede845c4177d947bb9a1e10b3fcda12f8aea49b22c378036f9f"),
    ("charsum --q 4 --k 3 --e1 2 --e2 5 --a 3 --b 7 --format text", 0,
     "3408de37c89371a266f62c9fd3254b11bb3ec89ef4133d7dc30acbbabbaef758"),
    ("dual --q 4 --k 3 --e1 2 --e2 5 --format json", 0,
     "d21975c4d56cfb29b8b4814fe67e24ec148a74c0b4dc1454078ccaaa7eb8869e"),
    ("dual --q 4 --k 3 --e1 2 --e2 5 --format text", 0,
     "9c918574e385e03233814e76c2b1b327deabfc2bac251cac367a418b63cea351"),
    ("minpoly --q 4 --k 3 --a 5 --format json", 0,
     "7fe745e41fc5795618131050a275e7ef3f10fd5f5c525f7b2834b46800a156ba"),
    ("minpoly --q 4 --k 3 --a 5 --format text", 0,
     "0ebc7c78fa3050f75581c4b11ea3c6a4fff4598ae6e3bf26a7846b2c722869cc"),
    ("enumerate --q 16 --k 4 --format json", 0,
     "b9193b247c22bea63349376e973a170b8e112952469219a7976a114da16a9d60"),
    ("enumerate --q 16 --k 4 --format text", 0,
     "a1da84a934fbea1da3ed68ef6ac427bcad15f0aef64984bd1b65ecdba0523c9f"),
    # h_(Delta*e1) = h_(e2): the parity check is one factor of degree 2
    ("dual --q 3 --k 2 --e1 1 --e2 4 --format json", 0,
     "724342ad086d19f0d920b8732b275703708b2aad038b4af016dc05608083e946"),
    ("dual --q 3 --k 2 --e1 1 --e2 4 --format text", 0,
     "042ccdda96f7b6444058efcedf6ba9782dda2b896557037b190a66971e572e5e"),
    # the n = 255 blocks, where a character-sum sweep once formed its largest grids
    ("verify --q 16 --k 2 --format json", 0,
     "fdc3815e66daf389e1fb3249981354b1d9e332efbd0003f61a29f99f421f1b32"),
    ("verify --q 16 --k 2 --format text", 0,
     "c6ce2273660b01a073035e1965bd8c5302e98afb9f8d6549559b374fc51a40ff"),
    ("verify --q 2 --k 8 --format json", 0,
     "0ad7939091415ef4329da3a3e73cfd8827e0e0780508ad2be28c754f73078301"),
    ("verify --q 2 --k 8 --format text", 0,
     "a2b6d283d609bee945fc5a3cd385e99381ab3f62954e96c407d826b865cefe0d"),
    # a dual written a frequency at a time: 1.8 MB of json, 7.3 MB of text
    ("dual --q 2 --k 12 --e1 0 --e2 1 --format json", 0,
     "3fcbbfcc802496f894c0568633ce1bfb2eae692ad49be6fa00f3cc4a5f9b80f3"),
    ("dual --q 2 --k 13 --e1 0 --e2 1 --format text", 0,
     "de05a62456b40a84b79cfac03d63fd04b9c664461df0aa8b9925d1888cac9b37"),
    # listings of several batches a row, as printed a record at a time
    ("enumerate --q 4 --k 8 --format json", 0,
     "257573d9b4a692ef25b576c800d06ed40cd83315c7c3863b71f52a888c936a23"),
    ("enumerate --q 4 --k 8 --format text", 0,
     "16ff0c9236accbd37002e913983d3ba2b7a9a0f825e48e9e9c0cc00fef790e95"),
    ("enumerate --q 2 --k 18 --format json", 0,
     "76f44a32a96e69e33b1279172675e16f42951a1f6de81a8cc2704e90a95c6415"),
    ("enumerate --q 2 --k 18 --format text", 0,
     "9d0d4c031cda288569b319ada3cfd93b5ac8eaee29180436c7e30cc5428cdc31"),
    # the eight blocks of the benchmark's verify workload
    ("verify --q 2 --k 6 --format json", 0,
     "349379e359a81254c992050d55d76b70957075c743e6519abb7de9caa33e348c"),
    ("verify --q 2 --k 7 --format json", 0,
     "b7baa22ebf939da527702e006b79603a2eebbc59f8a919bccc09f49527ca9334"),
    ("verify --q 3 --k 4 --format json", 0,
     "ac086c1217d8177e0b1d72a3e70923ef9dbc1550c06cce3ab718eb880c939027"),
    ("verify --q 4 --k 3 --format json", 0,
     "6ef528954482068e16a7cd736577349d0fe53688f483aeb1d85b28035e82b0a5"),
    ("verify --q 5 --k 3 --format json", 0,
     "4eb2c7ff7fb9a402d7afc2099913efc125e6f1b9eb220de508e021285f800a9a"),
    ("verify --q 8 --k 2 --format json", 0,
     "bdb2b222c3e6adb6a65e45c1dc153ebe09b2644d7cef3715106bf9c6b9ce414f"),
    ("verify --q 9 --k 2 --format json", 0,
     "2273228161dbbbdf11a9d5ee1ced8ba4726c4b8ce648a9d0cc5b0bbbf4df1ae2"),
    ("verify --q 11 --k 2 --format json", 0,
     "c08b51d5e80b5425654b11a188b95c3c86229134334f0162a8f3f964fb58d240"),
    # 107 cosets in 8 gcd classes: checked counts cosets, not classes
    ("verify --q 2 --k 10 --props two_weight_gaps --format json", 0,
     "3b65cf5fe227638cfac28b349e87ba7ba5d6c3739e26792a2ce4cb60c4cff7d8"),
    ("verify --q 2 --k 10 --props two_weight_gaps --format text", 0,
     "897d810e07dead62b96dc58ca94025b356562e00054b791f54b99b91d652ef3b"),
]


@pytest.mark.parametrize("command,exit_code,digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_output_is_unchanged(command, exit_code, digest):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(command.split())
    assert code == exit_code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def _run(command):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(command.split())
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command,exit_code,digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_a_bezout_pair_is_solved_only_by_the_substitution_sweep(command, exit_code, digest,
                                                               monkeypatch):
    # a code is its exponent pair everywhere else: enumerate, build, charsum,
    # dual and every other verify property keep their outputs without one
    inside, solved = [], []
    real_sweep = verify.verify_substitution

    def sweep(q, k):
        inside.append(1)
        try:
            return real_sweep(q, k)
        finally:
            inside.pop()

    for owner in (numth, verify):
        def guarded(e2, q, k, real=owner.bezout_pair):
            if not inside:
                raise AssertionError("a Bezout pair was solved outside the substitution sweep")
            solved.append(e2)
            return real(e2, q, k)

        monkeypatch.setattr(owner, "bezout_pair", guarded)
    monkeypatch.setattr(verify, "verify_substitution", sweep)
    assert _run(command) == (exit_code, digest)
    # the substitution sweep runs in every verify row that selects no --props
    assert bool(solved) == (command.startswith("verify") and "--props" not in command)


@pytest.mark.parametrize(
    "command,exit_code,digest",
    [g for g in GOLDEN if g[0].startswith("dual")],
    ids=[c for c, _, _ in GOLDEN if c.startswith("dual")],
)
def test_dual_forms_no_generator(command, exit_code, digest, monkeypatch):
    def no_division(*args):
        raise AssertionError("dual divided a polynomial")

    monkeypatch.setattr(polyring, "poly_divmod", no_division)
    assert _run(command) == (exit_code, digest)
