"""Truncated, bit-flipped and zeroed input files drive the CLI to a
documented exit code (0-4) with at most one line on stderr, never a
traceback."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tskpabe.cli import main
from tskpabe.ndnsim import FIVE_NODE_LINE

SECRET = "ab" * 16
# A copy tampered at rsu3 makes the second request retry at rsu2, and the
# third request names nothing, so the log holds every event kind replay reads.
SCENARIO = FIVE_NODE_LINE + (
    "content clip origin=origin size=4000 category=subscription-infotainment\n"
    "request t=1 requester=vehicle1 name=clip\n"
    "tamper t=2 node=rsu3 name=clip\n"
    "request t=3 requester=vehicle1 name=clip\n"
    "request t=4 requester=vehicle1 name=nothere\n"
)


def build_cases(d):
    """Write one valid file of every kind the CLI reads into ``d``; return
    the files' bytes and (file name, argv reading it from ``{}``) cases."""
    p = {name: str(d / name) for name in (
        "pk.bin", "mk.bin", "sk.bin", "ct.bin", "clip.bin", "clip.pkg", "dir.bin",
        "ledger.jsonl", "scenario.txt", "events.log", "out.bin",
    )}
    (d / "clip.bin").write_bytes(bytes(range(256)) * 9)
    (d / "scenario.txt").write_text(SCENARIO)
    revoke = ["revoke", "--ledger", p["ledger.jsonl"], "--now", "2022-07-05", "--pid"]
    script = [
        ["setup", "--attrs", "gold,family,kids", "--seed", "5",
         "--out-pk", p["pk.bin"], "--out-mk", p["mk.bin"]],
        ["keygen", "--pk", p["pk.bin"], "--mk", p["mk.bin"], "--policy", "gold AND family",
         "--window", "2022-07-30..2022-09-01", "--user", "bob", "--seed", "6",
         "--out", p["sk.bin"]],
        ["encrypt", "--pk", p["pk.bin"], "--attrs", "gold,family", "--nodes", "2022-08",
         "--seed", "7", "--out", p["ct.bin"]],
        ["seal", "--pk", p["pk.bin"], "--attrs", "gold,family", "--nodes", "2022-08",
         "--in", p["clip.bin"], "--out", p["clip.pkg"], "--chunk-size", "1024", "--seed", "8"],
        ["dir-build", "--issuer", "rsu1", "--secret", SECRET, "--out", p["dir.bin"],
         p["clip.bin"]],
        revoke + ["pid:a1", "--expiry", "2022-07-04"],
        revoke + ["pid:b2", "--expiry", "2022-09-02"],
        ["prune", "--ledger", p["ledger.jsonl"], "--now", "2022-07-05"],
        revoke + ["pid:c3", "--expiry", "2022-09-30"],
        ["sim", "run", p["scenario.txt"], "--events", p["events.log"]],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert [main(argv) for argv in script] == [0] * len(script)
    assert "ev=integrity" in (d / "events.log").read_text()
    files = {name: (d / name).read_bytes() for name in p if name != "out.bin"}
    cases = [
        ("pk.bin", ["encrypt", "--pk", "{}", "--attrs", "gold", "--nodes", "2022-08",
                    "--out", p["out.bin"]]),
        ("mk.bin", ["keygen", "--pk", p["pk.bin"], "--mk", "{}", "--policy", "gold OR kids",
                    "--nodes", "2022-08", "--user", "eve", "--out", p["out.bin"]]),
        ("sk.bin", ["decrypt", "--pk", p["pk.bin"], "--sk", "{}", "--ct", p["ct.bin"]]),
        ("ct.bin", ["decrypt", "--pk", p["pk.bin"], "--sk", p["sk.bin"], "--ct", "{}"]),
        ("clip.pkg", ["open", "--pk", p["pk.bin"], "--sk", p["sk.bin"], "--in", "{}",
                      "--out", p["out.bin"]]),
        ("dir.bin", ["dir-verify", "--dir", "{}", "--trusted", f"rsu1={SECRET}",
                     "--lookup", "clip.bin"]),
        ("ledger.jsonl", ["check", "--ledger", "{}", "--pid", "pid:b2", "--now", "2022-07-06"]),
        ("ledger.jsonl", ["revoke", "--ledger", "{}", "--pid", "pid:d4",
                          "--expiry", "2022-12-31", "--now", "2022-07-06"]),
        ("ledger.jsonl", ["prune", "--ledger", "{}", "--now", "2022-09-10"]),
        ("scenario.txt", ["sim", "run", "{}"]),
        ("events.log", ["sim", "replay", "{}"]),
    ]
    return files, cases


def run_mutated(argv, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path) if a == "{}" else a for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    return d, *build_cases(d)


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_mutated_input_ends_in_a_documented_exit(fuzz_inputs, data):
    d, files, cases = fuzz_inputs
    name, argv = data.draw(st.sampled_from(cases))
    blob = bytearray(files[name])
    for bit in data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), max_size=4)):
        blob[bit // 8] ^= 1 << bit % 8
    # A zeroed 4-byte run can null a fixed-width scalar such as a pid or alpha.
    for at in data.draw(st.lists(st.integers(0, len(blob) - 4), max_size=1)):
        blob[at : at + 4] = bytes(4)
    cut = data.draw(st.just(len(blob)) | st.integers(0, len(blob)))
    mutated = d / "mutated"
    mutated.write_bytes(bytes(blob[:cut]))
    code, err = run_mutated(argv, mutated)
    assert 0 <= code <= 4
    assert err.count("\n") <= 1, err
