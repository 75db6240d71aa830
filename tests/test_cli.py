import builtins
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tskpabe
from tskpabe.cli import build_parser, main
from tskpabe.envelope import DEFAULT_CHUNK_SIZE
from tskpabe.groups import DEFAULT_MODULUS, parse_suite
from tskpabe.ndnsim import FIVE_NODE_LINE, DataCategory
from tskpabe.scheme import DEFAULT_DEPTH, Mode
from tskpabe.subscription import RevocationLedger

SUITE = "transparent:2147483647"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def keyring(tmp_path):
    """Public params, master key, and an issued key over JUL-SEP 2022."""
    pk, mk, sk = tmp_path / "pk.bin", tmp_path / "mk.bin", tmp_path / "sk.bin"
    assert (
        main(
            [
                "setup",
                "--suite",
                SUITE,
                "--attrs",
                "gold,family,platinum",
                "--seed",
                "11",
                "--out-pk",
                str(pk),
                "--out-mk",
                str(mk),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "keygen",
                "--pk",
                str(pk),
                "--mk",
                str(mk),
                "--policy",
                "gold AND family",
                "--window",
                "2022-07-01..2022-09-02",
                "--user",
                "alice",
                "--seed",
                "12",
                "--out",
                str(sk),
            ]
        )
        == 0
    )
    return pk, mk, sk


def test_cover_emits_the_four_nodes(capsys):
    code, out, err = run(capsys, "cover", "2022-07-01..2022-09-02")
    assert code == 0
    assert out == "2022-07\n2022-08\n2022-09-01\n2022-09-02\n"
    assert err == ""


def test_cover_json(capsys):
    code, out, _ = run(capsys, "cover", "2022-07-01..2022-09-02", "--json")
    assert code == 0
    assert json.loads(out) == {
        "window": "2022-07-01..2022-09-02",
        "nodes": ["2022-07", "2022-08", "2022-09-01", "2022-09-02"],
    }


def test_cover_bad_window_is_usage_error(capsys):
    code, out, err = run(capsys, "cover", "2022-07-01..2022-02-30")
    assert code == 1
    assert "error" in err
    # The Gregorian calendar is the only one; the option that chose another is gone.
    code, out, err = run(capsys, "cover", "2022-07-01..2022-09-02", "--calendar", "idealized31")
    assert (code, out) == (1, "")
    assert err.startswith("usage error: unrecognized arguments: --calendar")


def test_encrypt_decrypt_roundtrip(capsys, tmp_path, keyring):
    pk, mk, sk = keyring
    ct = tmp_path / "ct.bin"
    code, out, _ = run(
        capsys,
        "encrypt",
        "--pk",
        str(pk),
        "--attrs",
        "gold,family",
        "--nodes",
        "2022-08",
        "--seed",
        "13",
        "--out",
        str(ct),
    )
    assert code == 0
    sealed_message = next(l for l in out.splitlines() if l.startswith("message="))
    code, out, _ = run(capsys, "decrypt", "--pk", str(pk), "--sk", str(sk), "--ct", str(ct))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == sealed_message
    assert lines[1] == "pairings=7"


def test_encrypt_is_deterministic_under_seed(capsys, tmp_path, keyring):
    pk, _, _ = keyring
    capsys.readouterr()  # drain the fixture's output
    outs = []
    blobs = []
    for name in ("a.bin", "b.bin"):
        path = tmp_path / name
        code, out, _ = run(
            capsys,
            "encrypt",
            "--pk",
            str(pk),
            "--attrs",
            "gold",
            "--nodes",
            "2022-08",
            "--seed",
            "99",
            "--out",
            str(path),
        )
        assert code == 0
        outs.append(out.replace(name, "X"))
        blobs.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert blobs[0] == blobs[1]


def test_decrypt_outside_window_exits_denied(capsys, tmp_path, keyring):
    pk, _, sk = keyring
    ct = tmp_path / "ct.bin"
    assert (
        main(
            [
                "encrypt",
                "--pk",
                str(pk),
                "--attrs",
                "gold,family",
                "--nodes",
                "2022-10",
                "--seed",
                "14",
                "--out",
                str(ct),
            ]
        )
        == 0
    )
    capsys.readouterr()
    code, out, err = run(capsys, "decrypt", "--pk", str(pk), "--sk", str(sk), "--ct", str(ct))
    assert code == 2
    assert "denied" in err


def test_bench_example_all_match(capsys):
    code, out, _ = run(
        capsys,
        "bench",
        "--U",
        "3",
        "--depth",
        "4",
        "--l",
        "2",
        "--tk",
        "4",
        "--tc",
        "1",
        "--suite",
        SUITE,
    )
    assert code == 0
    lines = out.splitlines()
    assert "pk measured_source=14 measured_target=1 predicted_source=14 predicted_target=1 match=1" in lines
    assert "sk measured_source=9 measured_target=1 predicted_source=9 predicted_target=1 match=1" in lines
    assert "ct measured_source=3 measured_target=1 predicted_source=3 predicted_target=1 match=1" in lines
    assert "decrypt rows_used=2 pairings=7 predicted=7 match=1" in lines
    assert lines[-1] == "all_match=1"


def test_bench_json(capsys):
    code, out, _ = run(
        capsys, "bench", "--U", "5", "--l", "3", "--tk", "2", "--tc", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"] is True
    assert payload["pk"]["measured_source"] == 5 + 4 + 7
    assert payload["decrypt"]["pairings"] == 9


def test_audit_cli_repaired_and_paper(capsys, tmp_path):
    for mode, expect_closed in (("repaired", True), ("paper", False)):
        pk = tmp_path / f"pk-{mode}.bin"
        mk = tmp_path / f"mk-{mode}.bin"
        sk = tmp_path / f"sk-{mode}.bin"
        ct = tmp_path / f"ct-{mode}.bin"
        assert (
            main(
                [
                    "setup",
                    "--suite",
                    SUITE,
                    "--mode",
                    mode,
                    "--attrs",
                    "gold,family",
                    "--seed",
                    "5",
                    "--out-pk",
                    str(pk),
                    "--out-mk",
                    str(mk),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "keygen",
                    "--pk",
                    str(pk),
                    "--mk",
                    str(mk),
                    "--policy",
                    "gold AND family",
                    "--nodes",
                    "2022-08",
                    "--id",
                    "1234",
                    "--seed",
                    "6",
                    "--out",
                    str(sk),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "encrypt",
                    "--pk",
                    str(pk),
                    "--attrs",
                    "gold,family",
                    "--nodes",
                    "2022-08",
                    "--seed",
                    "7",
                    "--out",
                    str(ct),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code, out, _ = run(
            capsys, "audit", "--pk", str(pk), "--sk", str(sk), "--ct", str(ct), "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == mode
        closed = {s["step"]: s["closed"] for s in report["steps"]}
        assert closed["a"] and closed["b"] and closed["c"]
        assert closed["d"] is expect_closed
        assert report["all_closed"] is expect_closed
        assert report["attributes_bound"] is False
        code, out, _ = run(capsys, "audit", "--pk", str(pk), "--sk", str(sk), "--ct", str(ct))
        assert code == 0
        assert out.splitlines()[-2:] == [f"all_closed={int(expect_closed)}", "attributes_bound=0"]


def test_seal_open_roundtrip_and_tamper(capsys, tmp_path, keyring):
    pk, _, sk = keyring
    source = tmp_path / "movie.bin"
    source.write_bytes(bytes(range(256)) * 40)
    package = tmp_path / "movie.pkg"
    restored = tmp_path / "restored.bin"
    code, out, _ = run(
        capsys,
        "seal",
        "--pk",
        str(pk),
        "--attrs",
        "gold,family",
        "--window",
        "2022-08-01..2022-08-31",
        "--in",
        str(source),
        "--out",
        str(package),
        "--chunk-size",
        "1024",
        "--seed",
        "21",
    )
    assert code == 0
    assert "chunks=10" in out
    code, _, _ = run(
        capsys, "open", "--pk", str(pk), "--sk", str(sk), "--in", str(package), "--out", str(restored)
    )
    assert code == 0
    assert restored.read_bytes() == source.read_bytes()

    blob = bytearray(package.read_bytes())
    blob[-10] ^= 0x40  # inside the last chunk
    package.write_bytes(bytes(blob))
    code, _, err = run(
        capsys, "open", "--pk", str(pk), "--sk", str(sk), "--in", str(package), "--out", str(restored)
    )
    assert code == 3
    assert "integrity" in err


def test_open_rejects_other_package_versions(capsys, tmp_path, keyring):
    pk, _, sk = keyring
    source = tmp_path / "clip.bin"
    source.write_bytes(b"clip bytes")
    package = tmp_path / "clip.pkg"
    code, _, _ = run(
        capsys, "seal", "--pk", str(pk), "--attrs", "gold,family", "--nodes", "2022-08",
        "--in", str(source), "--out", str(package), "--seed", "22",
    )
    assert code == 0
    blob = package.read_bytes()
    assert blob[:5] == b"TKPK\x01"
    # Version 2, and a package from before the version byte existed.
    for edited, version in ((blob[:4] + b"\x02" + blob[5:], 2), (blob[:4] + blob[5:], 0)):
        package.write_bytes(edited)
        code, out, err = run(
            capsys, "open", "--pk", str(pk), "--sk", str(sk), "--in", str(package),
            "--out", str(tmp_path / "out.bin"),
        )
        assert (code, out) == (1, "")
        assert err == f"error: unsupported package version {version}\n"


def test_open_with_wrong_key_is_denied(capsys, tmp_path, keyring):
    pk, mk, _ = keyring
    weak = tmp_path / "weak.bin"
    assert (
        main(
            [
                "keygen",
                "--pk",
                str(pk),
                "--mk",
                str(mk),
                "--policy",
                "platinum",
                "--window",
                "2022-07-01..2022-09-02",
                "--id",
                "777",
                "--seed",
                "31",
                "--out",
                str(weak),
            ]
        )
        == 0
    )
    source = tmp_path / "m.bin"
    source.write_bytes(b"secret media")
    package = tmp_path / "m.pkg"
    assert (
        main(
            [
                "seal",
                "--pk",
                str(pk),
                "--attrs",
                "gold,family",
                "--nodes",
                "2022-08",
                "--in",
                str(source),
                "--out",
                str(package),
                "--seed",
                "32",
            ]
        )
        == 0
    )
    capsys.readouterr()
    code, _, err = run(
        capsys,
        "open",
        "--pk",
        str(pk),
        "--sk",
        str(weak),
        "--in",
        str(package),
        "--out",
        str(tmp_path / "no.bin"),
    )
    assert code == 2
    assert "access denied" in err


def test_directory_build_verify_lookup(capsys, tmp_path):
    movie = tmp_path / "badguy.mp4"
    movie.write_bytes(b"encrypted movie bytes")
    directory = tmp_path / "dir.bin"
    code, out, _ = run(
        capsys,
        "dir-build",
        "--issuer",
        "rsu1",
        "--secret",
        "ab" * 16,
        "--out",
        str(directory),
        str(movie),
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        "dir-verify",
        "--dir",
        str(directory),
        "--trusted",
        "rsu1=" + "ab" * 16,
        "--lookup",
        "badguy.mp4",
    )
    assert code == 0
    assert "ok=1" in out
    assert "lookup=badguy.mp4 found=1" in out

    code, out, _ = run(
        capsys, "dir-verify", "--dir", str(directory), "--trusted", "rsu1=" + "cd" * 16
    )
    assert code == 4
    assert "ok=0" in out

    code, _, err = run(
        capsys, "dir-verify", "--dir", str(directory), "--trusted", "other=" + "ab" * 16
    )
    assert code == 4
    assert "verification failure" in err and "rsu1" in err


def test_sim_run_and_replay(capsys, tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text(
        "seed 5\n"
        "node origin kind=third-party-server capacity=0\n"
        "node rsu1 kind=rsu capacity=100000\n"
        "node vehicle1 kind=vehicle capacity=0\n"
        "link origin rsu1 latency=10\n"
        "link rsu1 vehicle1 latency=10\n"
        "content /clip origin=origin size=500 category=public-infotainment\n"
        "request t=1 requester=vehicle1 name=/clip\n"
        "request t=2 requester=vehicle1 name=/clip\n"
    )
    events = tmp_path / "events.log"
    code, run_out, _ = run(capsys, "sim", "run", str(config), "--events", str(events))
    assert code == 0
    assert events.exists()
    code, replay_out, _ = run(capsys, "sim", "replay", str(events))
    assert code == 0
    assert replay_out == run_out

    code, json_out, _ = run(capsys, "sim", "run", str(config), "--json")
    assert code == 0
    payload = json.loads(json_out)
    assert payload["requests"] == 2 and payload["cache_hits"] == 1


def test_sim_run_rejects_negative_content_size(capsys, tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text(
        "node origin kind=third-party-server capacity=0\n"
        "content /neg origin=origin size=-5 category=public-traffic\n"
    )
    code, out, err = run(capsys, "sim", "run", str(config))
    assert code == 1 and out == ""
    assert err == "error: content '/neg' has negative size -5\n"


def test_cli_import_leaves_networkx_out():
    """Importing the CLI loads only the standard library and the package
    itself, so a new runtime dependency shows here before it raises every
    command's start-up time and memory.  Modules already loaded at start-up
    (site packages included) do not count."""
    src = str(Path(tskpabe.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    probe = (
        "import sys; before = set(sys.modules); import tskpabe.cli; "
        "added = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(added - set(sys.stdlib_module_names) - {'tskpabe'}), "
        "'networkx' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[] False\n"


def test_ledger_lifecycle(capsys, tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    code, out, _ = run(
        capsys,
        "check",
        "--ledger",
        str(ledger),
        "--pid",
        "pid:abc",
        "--now",
        "2022-07-10",
    )
    assert code == 0 and "status=active" in out

    code, out, _ = run(
        capsys,
        "revoke",
        "--ledger",
        str(ledger),
        "--pid",
        "pid:abc",
        "--expiry",
        "2022-09-02",
        "--now",
        "2022-07-10",
    )
    assert code == 0 and "duplicate=0" in out

    code, out, _ = run(
        capsys, "check", "--ledger", str(ledger), "--pid", "pid:abc", "--now", "2022-07-11"
    )
    assert code == 2 and "status=revoked" in out

    code, out, _ = run(capsys, "prune", "--ledger", str(ledger), "--now", "2022-09-02")
    assert code == 0 and "removed=0" in out
    code, out, _ = run(capsys, "prune", "--ledger", str(ledger), "--now", "2022-09-03")
    assert code == 0 and "removed=1" in out

    code, out, _ = run(capsys, "ledger-verify", "--ledger", str(ledger))
    assert code == 0 and "ok=1" in out

    text = ledger.read_text().replace("pruned_at", "prunedXat")
    ledger.write_text(text)
    code, out, _ = run(capsys, "ledger-verify", "--ledger", str(ledger))
    assert code == 4 and "ok=0" in out


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "usage error" in err


def test_help_prints_usage_and_exits_0(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: tskpabe ")


def test_keygen_needs_identity(capsys, tmp_path, keyring):
    pk, mk, _ = keyring
    code, _, err = run(
        capsys,
        "keygen",
        "--pk",
        str(pk),
        "--mk",
        str(mk),
        "--policy",
        "gold",
        "--nodes",
        "2022-08",
        "--out",
        str(tmp_path / "x.bin"),
    )
    assert code == 1
    assert "need --id or --user" in err


@pytest.mark.parametrize(
    ("identity", "expected_code", "expected"),
    [
        ("0", 1, "nonzero"),
        ("2147483647", 1, "nonzero"),  # p itself, zero mod p
        ("-1", 0, "pid=pid:7ffffffe rows=1\n"),  # -1 mod p
    ],
)
def test_keygen_id_is_taken_mod_p(capsys, tmp_path, keyring, identity, expected_code, expected):
    pk, mk, _ = keyring
    out_path = tmp_path / "x.bin"
    code, out, err = run(
        capsys, "keygen", "--pk", str(pk), "--mk", str(mk), "--policy", "gold",
        "--nodes", "2022-08", "--id", identity, "--out", str(out_path),
    )
    assert code == expected_code
    assert expected in (out if code == 0 else err)
    assert out_path.exists() == (code == 0)


@pytest.mark.parametrize(
    ("label", "message"),
    [
        ("g)", "universe label 'g)' is not an attribute a policy can name"),
        ("gold", "universe labels must be distinct"),
    ],
    ids=["unnameable", "repeated"],
)
def test_edited_public_key_labels_are_rejected(capsys, tmp_path, keyring, label, message):
    from tskpabe.wire import pack_str

    pk, _, _ = keyring
    data = pk.read_bytes()
    assert data.count(pack_str("family")) == 1
    edited = tmp_path / "edited-pk.bin"
    edited.write_bytes(data.replace(pack_str("family"), pack_str(label)))
    code, _, err = run(
        capsys, "encrypt", "--pk", str(edited), "--attrs", "gold", "--nodes", "2022-08",
        "--out", str(tmp_path / "ct.bin"),
    )
    assert (code, err) == (1, f"error: public key universe: {message}\n")


def test_encrypt_unknown_attribute_is_usage_error(capsys, tmp_path, keyring):
    pk, _, _ = keyring
    code, _, err = run(
        capsys,
        "encrypt",
        "--pk",
        str(pk),
        "--attrs",
        "gold,bogus",
        "--nodes",
        "2022-08",
        "--out",
        str(tmp_path / "ct.bin"),
    )
    assert code == 1
    assert err == "usage error: attribute 'bogus' not in the universe\n"


def test_keygen_unknown_attribute_is_usage_error(capsys, tmp_path, keyring):
    pk, mk, _ = keyring
    code, _, err = run(
        capsys,
        "keygen",
        "--pk",
        str(pk),
        "--mk",
        str(mk),
        "--policy",
        "gold AND bogus",
        "--nodes",
        "2022-08",
        "--user",
        "alice",
        "--out",
        str(tmp_path / "sk2.bin"),
    )
    assert code == 1
    assert err == "usage error: attribute 'bogus' not in the universe\n"


def test_zero_pid_key_is_usage_error(capsys, tmp_path, keyring):
    pk, _, sk = keyring
    ct = tmp_path / "ct.bin"
    args = ("--attrs", "gold,family", "--nodes", "2022-08", "--out", str(ct))
    assert run(capsys, "encrypt", "--pk", str(pk), *args)[0] == 0
    # The pid scalar follows the 16-byte header and the private-key marker.
    data = sk.read_bytes()
    sk.write_bytes(data[:17] + bytes(4) + data[21:])
    code, out, err = run(capsys, "decrypt", "--pk", str(pk), "--sk", str(sk), "--ct", str(ct))
    assert code == 1 and out == ""
    assert err == "error: private key has a zero pseudo-identity\n"


def test_zero_alpha_master_key_is_usage_error(capsys, tmp_path, keyring):
    pk, mk, _ = keyring
    # The alpha scalar follows the 16-byte header and the master-key marker.
    data = mk.read_bytes()
    mk.write_bytes(data[:17] + bytes(4) + data[21:])
    capsys.readouterr()
    args = ("--policy", "gold", "--nodes", "2022-08", "--user", "bob")
    code, out, err = run(
        capsys, "keygen", "--pk", str(pk), "--mk", str(mk), *args, "--out", str(tmp_path / "k")
    )
    assert code == 1 and out == ""
    assert err == "error: master key has a zero alpha\n"


def _revoke(capsys, ledger, pid, expiry, now="2022-07-05"):
    return run(
        capsys, "revoke", "--ledger", str(ledger), "--pid", pid, "--expiry", expiry, "--now", now
    )


def _ledger_with_three_revoked(capsys, tmp_path):
    """The three same-day revocations that open the benchmark's CLI day."""
    ledger = tmp_path / "ledger.jsonl"
    revoked = (("pid:a1", "2022-07-04"), ("pid:b2", "2022-09-02"), ("pid:c3", "2022-09-30"))
    for pid, expiry in revoked:
        assert _revoke(capsys, ledger, pid, expiry)[0] == 0
    return ledger


def test_hand_edited_ledger_fails_closed(capsys, tmp_path):
    ledger = _ledger_with_three_revoked(capsys, tmp_path)
    edited = ledger.read_bytes().replace(b'"pid:c3"', b'"pid:c4"')
    ledger.write_bytes(edited)
    check = ("check", "--ledger", str(ledger), "--pid", "pid:c3", "--now", "2022-07-06")
    for argv in (check, ("prune", "--ledger", str(ledger), "--now", "2022-09-10")):
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == ""
        assert err == f"verification failure: ledger {ledger}: digest chain does not verify\n"
    code, out, _ = _revoke(capsys, ledger, "pid:e5", "2022-12-31", now="2022-07-06")
    assert code == 4 and out == ""
    assert ledger.read_bytes() == edited
    code, out, _ = run(capsys, "ledger-verify", "--ledger", str(ledger))
    assert code == 4 and "ok=0" in out


def test_stamps_stay_unique_across_prune_and_reload(capsys, tmp_path):
    ledger = _ledger_with_three_revoked(capsys, tmp_path)
    code, out, _ = run(capsys, "prune", "--ledger", str(ledger), "--now", "2022-07-05")
    assert code == 0 and "removed=1 remaining=2" in out
    assert _revoke(capsys, ledger, "pid:e5", "2022-12-31")[0] == 0
    stamps = [
        entry["tx_timestamp"]
        for line in ledger.read_text().splitlines()
        for entry in json.loads(line)["payload"].get("entries", [])
    ]
    assert stamps == ["2022-07-05/2", "2022-07-05/3", "2022-07-05/4"]


def test_malformed_ledger_line_is_usage_error(capsys, tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    revoke = ("--expiry", "2022-09-02", "--now", "2022-07-10")
    assert run(capsys, "revoke", "--ledger", str(ledger), "--pid", "pid:abc", *revoke)[0] == 0
    for bad in ("{}", "[1,2]", '{"index":1,"kind":"entries","prev":"","payload":{},"digest":""}'):
        ledger.write_text(ledger.read_text().splitlines()[0] + "\n" + bad + "\n")
        code, out, err = run(
            capsys, "check", "--ledger", str(ledger), "--pid", "pid:abc", "--now", "2022-07-11"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ledger line 2: ") and err.count("\n") == 1


# The benchmark CLI day's ledger script: each step's arguments, exit code and
# stdout, then the ledger file's size and SHA-256 after it.
_LEDGER_DAY = (
    (("revoke", "--pid", "pid:a1", "--expiry", "2022-07-04", "--now", "2022-07-05"), 0,
     "revoked pid=pid:a1 expiry=2022-07-04 duplicate=0\n",
     217, "1afc6f1a1837b92b5d5293041784a7356afcf7c11e87ceb42ad12df35d69360b"),
    (("revoke", "--pid", "pid:b2", "--expiry", "2022-09-02", "--now", "2022-07-05"), 0,
     "revoked pid=pid:b2 expiry=2022-09-02 duplicate=0\n",
     498, "c309760eefbaca4626f43dd5c4f408749fdd16bf5ed515906617d7250f53f76c"),
    (("revoke", "--pid", "pid:c3", "--expiry", "2022-09-30", "--now", "2022-07-05"), 0,
     "revoked pid=pid:c3 expiry=2022-09-30 duplicate=0\n",
     779, "31d0c1ddc7a245a026e727c020d8c4ffe650ff42452f130bb764ea928820372a"),
    (("check", "--pid", "pid:b2", "--now", "2022-07-05"), 2, "pid=pid:b2 status=revoked\n",
     779, "31d0c1ddc7a245a026e727c020d8c4ffe650ff42452f130bb764ea928820372a"),
    (("check", "--pid", "pid:d4", "--now", "2022-07-05"), 0, "pid=pid:d4 status=active\n",
     779, "31d0c1ddc7a245a026e727c020d8c4ffe650ff42452f130bb764ea928820372a"),
    (("prune", "--now", "2022-07-05"), 0, "removed=1 remaining=2\n",
     612, "08cbc0e148befbf0c1000fe1bdc6f621c213cc93302cf9a370ff5a43ac50e4b2"),
    (("check", "--pid", "pid:a1", "--now", "2022-07-05"), 0, "pid=pid:a1 status=active\n",
     612, "08cbc0e148befbf0c1000fe1bdc6f621c213cc93302cf9a370ff5a43ac50e4b2"),
    (("revoke", "--pid", "pid:e5", "--expiry", "2022-12-31", "--now", "2022-07-05"), 0,
     "revoked pid=pid:e5 expiry=2022-12-31 duplicate=0\n",
     893, "ca7c4fc03c80144e5cf4e4b15de09f31474d478ebb13c74b9877d66a140ab2b8"),
)


def test_ledger_day_file_bytes_known_answer(capsys, tmp_path, monkeypatch):
    """After each command of the day, the file holds exactly the canonical
    text of the ledger it loads as, and the bytes pinned here.  No command
    opens a file with truncation: on ext4 a truncating open of the ledger
    waits for the flush that closing the previous truncated one started."""
    truncating = []
    real_open, real_os_open = builtins.open, os.open

    def guarded_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            truncating.append((file, mode))
        return real_open(file, mode, *args, **kwargs)

    def guarded_os_open(path, flags, *args, **kwargs):
        if flags & os.O_TRUNC:
            truncating.append((path, flags))
        return real_os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", guarded_open)
    monkeypatch.setattr(os, "open", guarded_os_open)
    ledger = tmp_path / "ledger.jsonl"
    for (command, *args), code, stdout, size, digest in _LEDGER_DAY:
        assert run(capsys, command, "--ledger", str(ledger), *args) == (code, stdout, "")
        data = ledger.read_bytes()
        assert data == RevocationLedger.load(ledger).to_text().encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)
    assert truncating == []


def test_parser_defaults_match_program_constants(capsys, tmp_path, keyring):
    """The parser names no program module, so its literal defaults are tied
    here to the constants they stand for."""
    parser = build_parser()

    def option(command, dest):
        sub = parser._subparsers._group_actions[0].choices[command]
        return next(a for a in sub._actions if a.dest == dest)

    for command in ("setup", "bench"):
        mode = option(command, "mode")
        assert mode.choices == [m.value for m in Mode] and mode.default == Mode.REPAIRED.value
        assert parse_suite(option(command, "suite").default).p == DEFAULT_MODULUS
    assert option("dir-build", "category").default == DataCategory.PUBLIC_INFOTAINMENT.value

    pk = tmp_path / "pk-default.bin"
    code, out, _ = run(capsys, "setup", "--out-pk", str(pk), "--out-mk", str(tmp_path / "mk"))
    assert code == 0 and f"depth={DEFAULT_DEPTH}\n" in out
    code, out, _ = run(capsys, "bench", "--U", "3", "--l", "2", "--tk", "1", "--tc", "1")
    assert code == 0 and f" depth={DEFAULT_DEPTH} " in out
    source = tmp_path / "clip.bin"
    source.write_bytes(b"clip")
    code, out, _ = run(
        capsys, "seal", "--pk", str(keyring[0]), "--attrs", "gold", "--nodes", "2022-08",
        "--in", str(source), "--out", str(tmp_path / "clip.pkg"),
    )
    assert code == 0 and f"chunk_size={DEFAULT_CHUNK_SIZE}\n" in out


def _fresh_env():
    src = str(Path(tskpabe.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture
def workspace(capsys, tmp_path, keyring):
    """Every file kind the commands below read, written in-process: keys,
    a ciphertext, a package sealed for gold AND family, a key the policy
    denies, and a ledger with one revoked pid."""
    pk, mk, sk = keyring
    files = {"pk": pk, "mk": mk, "sk": sk}
    for name in ("ct", "weak", "content", "pkg", "dir", "ledger"):
        files[name] = tmp_path / name
    files["content"].write_bytes(bytes(range(256)) * 20)
    commands = [
        ("encrypt", "--pk", pk, "--attrs", "gold,family", "--nodes", "2022-08",
         "--out", files["ct"]),
        ("keygen", "--pk", pk, "--mk", mk, "--policy", "platinum", "--nodes", "2022-08",
         "--id", "777", "--out", files["weak"]),
        ("seal", "--pk", pk, "--attrs", "gold,family", "--nodes", "2022-08",
         "--in", files["content"], "--out", files["pkg"], "--chunk-size", "1024"),
        ("dir-build", "--issuer", "rsu1", "--secret", "ab" * 16, "--out", files["dir"],
         files["content"]),
        ("revoke", "--ledger", files["ledger"], "--pid", "pid:c3", "--expiry", "2022-09-30",
         "--now", "2022-07-05"),
    ]
    for argv in commands:
        assert main([str(a) for a in argv]) == 0
    capsys.readouterr()
    return {k: str(v) for k, v in files.items()}


_PROGRAM = {"groups", "lsss", "scheme", "timetree", "wire", "envelope", "ndnsim", "subscription"}


@pytest.mark.parametrize(
    ("argv", "code", "loaded"),
    [
        (["cover", "2022-07-01..2022-09-02"], 0, {"timetree"}),
        (["revoke", "--ledger", "{ledger}", "--pid", "pid:e5", "--expiry", "2022-12-31",
          "--now", "2022-07-06"], 0, {"subscription", "timetree", "wire"}),
        (["check", "--ledger", "{ledger}", "--pid", "pid:c3", "--now", "2022-07-06"], 2,
         {"subscription", "timetree", "wire"}),
        (["prune", "--ledger", "{ledger}", "--now", "2022-10-01"], 0,
         {"subscription", "timetree", "wire"}),
        (["decrypt", "--pk", "{pk}", "--sk", "{sk}", "--ct", "{ct}"], 0,
         {"groups", "lsss", "scheme", "timetree", "wire"}),
        (["audit", "--pk", "{pk}", "--sk", "{sk}", "--ct", "{ct}"], 0,
         {"audit", "groups", "lsss", "scheme", "timetree", "wire"}),
        (["bench", "--U", "3", "--l", "2", "--tk", "1", "--tc", "1"], 0,
         {"audit", "groups", "lsss", "scheme", "timetree", "wire"}),
        (["seal", "--pk", "{pk}", "--attrs", "gold", "--nodes", "2022-08", "--in", "{content}",
          "--out", "{pkg}"], 0, _PROGRAM - {"ndnsim", "subscription"}),
        (["open", "--pk", "{pk}", "--sk", "{sk}", "--in", "{pkg}", "--out", "{content}"], 0,
         _PROGRAM - {"ndnsim", "subscription"}),
    ],
    ids=["cover", "revoke", "check", "prune", "decrypt", "audit", "bench", "seal", "open"],
)
def test_each_command_loads_only_its_modules(tmp_path, workspace, argv, code, loaded):
    """A command run in a fresh interpreter imports only the program modules
    it uses, so start-up stays cheap for the short commands a vehicle runs."""
    report = tmp_path / "modules.json"
    probe = (
        "import json, sys; from tskpabe.cli import main; code = main(sys.argv[2:]); "
        "names = [m for m in sys.modules if m.startswith('tskpabe.')]; "
        "json.dump([code, sorted(names)], open(sys.argv[1], 'w'))"
    )
    args = [a.format(**workspace) for a in argv]
    subprocess.run(
        [sys.executable, "-c", probe, str(report), *args],
        env=_fresh_env(), capture_output=True, check=True, timeout=60,
    )
    got_code, names = json.loads(report.read_text())
    assert got_code == code
    assert set(names) == {"tskpabe.cli"} | {f"tskpabe.{m}" for m in loaded}


_SCENARIO = FIVE_NODE_LINE + (
    "content clip origin=origin size=4000 category=public-infotainment\n"
    "request t=1 requester=vehicle1 name=clip\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "2022-07-01..2022-09-02"],
        ["setup", "--out-pk", "{out}", "--out-mk", "{out}"],
        ["keygen", "--pk", "{pk}", "--mk", "{mk}", "--policy", "gold", "--nodes", "2022-08",
         "--id", "5", "--out", "{out}"],
        ["encrypt", "--pk", "{pk}", "--attrs", "gold", "--nodes", "2022-08", "--out", "{out}"],
        ["decrypt", "--pk", "{pk}", "--sk", "{sk}", "--ct", "{ct}"],
        ["audit", "--pk", "{pk}", "--sk", "{sk}", "--ct", "{ct}"],
        ["bench", "--U", "3", "--l", "2", "--tk", "1", "--tc", "1"],
        ["seal", "--pk", "{pk}", "--attrs", "gold", "--nodes", "2022-08", "--in", "{content}",
         "--out", "{out}"],
        ["open", "--pk", "{pk}", "--sk", "{sk}", "--in", "{pkg}", "--out", "{out}"],
        ["dir-build", "--issuer", "rsu1", "--secret", "ab" * 16, "--out", "{out}", "{content}"],
        ["dir-verify", "--dir", "{dir}", "--trusted", "rsu1=" + "ab" * 16],
        ["sim", "run", "{scenario}"],
        ["revoke", "--ledger", "{ledger}", "--pid", "pid:e5", "--expiry", "2022-12-31",
         "--now", "2022-07-06"],
        ["check", "--ledger", "{ledger}", "--pid", "pid:c3", "--now", "2022-07-06"],
        ["prune", "--ledger", "{ledger}", "--now", "2022-10-01"],
    ],
    ids=lambda argv: " ".join(argv[:2]) if argv[0] == "sim" else argv[0],
)
def test_commands_generate_no_code_at_import(tmp_path, workspace, argv):
    """Without ``site``, which may load ``typing`` itself, no command loads
    ``dataclasses`` (whose classes ``exec`` generated methods), ``inspect``,
    ``typing`` or ``datetime`` (day arithmetic is the program's own)."""
    report = tmp_path / "modules.json"
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(_SCENARIO)
    probe = (
        "import sys; from tskpabe.cli import main; code = main(sys.argv[2:]); "
        "import json; heavy = ['dataclasses', 'inspect', 'typing', 'datetime']; "
        "json.dump([code, [m for m in heavy if m in sys.modules]], open(sys.argv[1], 'w'))"
    )
    paths = dict(workspace, out=tmp_path / "out.bin", scenario=scenario)
    subprocess.run(
        [sys.executable, "-S", "-c", probe, str(report), *(a.format(**paths) for a in argv)],
        env=_fresh_env(), capture_output=True, check=True, timeout=60,
    )
    code, heavy = json.loads(report.read_text())
    assert code == (2 if argv[0] == "check" else 0)
    assert heavy == []


_NESTED = "(" * 1200 + "gold" + ")" * 1200

# Scenarios with a setting out of range, a content too large or at the
# chunk bound, requests over the run's chunk budget (17 of 65,536 chunks),
# an edit of an unknown node, or a repeated or unknown key, and an event log
# whose served line lacks its other fields.  The chunk bound holds for a
# chunk-size line that comes after the content.
_BAD_SCENARIOS = {
    "zero_chunk": "chunk-size 0\n" + _SCENARIO,
    "negative_chunk": "chunk-size -5\n" + _SCENARIO,
    "negative_budget": "hop-budget -1\n" + _SCENARIO,
    "negative_seed": "seed -1\n" + _SCENARIO,
    "wide_seed": f"seed {2**64}\n" + _SCENARIO,
    "ghost_unlink": _SCENARIO + "unlink t=2 a=ghost b=rsu1\n",
    "huge_size": _SCENARIO.replace("size=4000", f"size={10**30}"),
    "over_chunks": _SCENARIO.replace("size=4000", "size=65537") + "chunk-size 1\n",
    "max_chunks": _SCENARIO.replace("size=4000", "size=65536") + "chunk-size 1\n",
    "over_run_chunks": _SCENARIO.replace("size=4000", "size=65536") + "chunk-size 1\n"
    + "request t=2 requester=vehicle1 name=clip\n" * 16,
    "short_log": "ev=served seq=1\n",
    "repeated_key": _SCENARIO.replace("size=4000", "size=1 size=4000"),
    "unknown_key": _SCENARIO + "request t=2 requester=vehicle1 name=clip prio=9\n",
}


@pytest.mark.parametrize(
    ("argv", "code", "stderr"),
    [
        (["encrypt", "--pk", "{pk}", "--attrs", "gold,bogus", "--nodes", "2022-08",
          "--out", "{ct}"], 1, "usage error: attribute 'bogus' not in the universe"),
        (["decrypt", "--pk", "{short_pk}", "--sk", "{sk}", "--ct", "{ct}"], 1, "error: "),
        (["open", "--pk", "{pk}", "--sk", "{weak}", "--in", "{pkg}", "--out", "{content}"], 2,
         "access denied: "),
        (["open", "--pk", "{pk}", "--sk", "{sk}", "--in", "{flipped_pkg}", "--out",
          "{content}"], 3, "integrity failure: "),
        (["dir-verify", "--dir", "{dir}", "--trusted", "other=" + "ab" * 16], 4,
         "verification failure: "),
        (["dir-verify", "--dir", "{dir}", "--trusted", "rsu1=" + "cd" * 16], 4, None),
        (["check", "--ledger", "{edited_ledger}", "--pid", "pid:c3", "--now", "2022-07-06"], 4,
         "verification failure: ledger "),
        (["keygen", "--pk", "{pk}", "--mk", "{mk}", "--policy", _NESTED, "--nodes", "2022-08",
          "--id", "5", "--out", "{weak}"], 1, "error: policy nests deeper than"),
        (["keygen", "--pk", "{pk}", "--mk", "{mk}", "--policy", " AND ".join(["gold"] * 1200),
          "--nodes", "2022-08", "--id", "5", "--out", "{weak}"], 1,
         "error: policy nests deeper than"),
        (["decrypt", "--pk", "{pk}", "--sk", "{nested_sk}", "--ct", "{ct}"], 1,
         "error: private key policy: policy nests deeper than"),
        (["decrypt", "--pk", "{pk}", "--sk", "{retired_sk}", "--ct", "{ct}"], 1,
         "error: private key in the retired matrix format"),
        (["decrypt", "--pk", "{pk}", "--sk", "{newline_sk}", "--ct", "{ct}"], 1,
         "error: bad time node '2022-07\\n'"),
        (["check", "--ledger", "{ledger}", "--pid", "pid:e5", "--now", "0000-13-99"], 1,
         "error: year must be positive, got 0"),
        (["sim", "run", "{zero_chunk}"], 1, "error: line 1: chunk-size must be >= 1"),
        (["sim", "run", "{negative_chunk}"], 1, "error: line 1: chunk-size must be >= 1"),
        (["sim", "run", "{negative_budget}"], 1, "error: line 1: hop-budget must be >= 0"),
        (["sim", "run", "{negative_seed}"], 1, "error: line 1: seed must be from 0 to 2**64 - 1"),
        (["sim", "run", "{wide_seed}"], 1, "error: line 1: seed must be from 0 to 2**64 - 1"),
        (["sim", "run", "{ghost_unlink}"], 1, "error: unlink references unknown node 'ghost'"),
        (["sim", "run", "{huge_size}"], 1, "error: content 'clip' spans more than 65536 chunks"),
        (["sim", "run", "{over_chunks}"], 1,
         "error: content 'clip' spans more than 65536 chunks"),
        (["sim", "run", "{max_chunks}"], 0, ""),
        (["sim", "run", "{over_run_chunks}"], 1,
         "error: scheduled requests span 1114112 chunks, more than 1048576"),
        (["sim", "replay", "{short_log}"], 1, "error: event line 1: no field 't'"),
        (["sim", "run", "{repeated_key}"], 1, "error: line 11: repeated key 'size'"),
        (["sim", "run", "{unknown_key}"], 1, "error: line 13: unknown key 'prio'"),
        (["setup", "--depth", "300", "--out-pk", "{out}", "--out-mk", "{out}"], 1,
         "error: tree depth must be <= 255, got 300"),
        (["setup", "--universe-size", "70000", "--out-pk", "{out}", "--out-mk", "{out}"], 1,
         "error: universe size must be <= 65535, got 70000"),
        (["seal", "--pk", "{pk}", "--attrs", "gold", "--nodes", "2022-08", "--in", "{content}",
          "--out", "{out}", "--chunk-size", "5000000000"], 1,
         "error: value 5000000000 does not fit an unsigned 32-bit field"),
        (["dir-build", "--issuer", "rsu1", "--secret", "ab" * 16, "--timestamp", "-1",
          "--out", "{out}", "{content}"], 1, "error: value -1 does not fit an unsigned 64-bit"),
        (["setup", "--attrs", "gold,,family", "--out-pk", "{out}", "--out-mk", "{out}"], 1,
         "error: universe label '' is not an attribute a policy can name"),
        (["check", "--ledger", "{deep_ledger}", "--pid", "pid:c3", "--now", "2022-07-06"], 1,
         "error: ledger line 1: malformed block"),
        (["decrypt", "--pk", "{pk}"], 1,
         "usage error: the following arguments are required: --sk, --ct"),
        (["keygen", "--pk", "{pk}", "--mk", "{mk}", "--policy", "gold", "--nodes", "2022-08",
          "--out", "{out}"], 1, "usage error: need --id or --user"),
    ],
    ids=["unknown-attribute", "truncated-pk", "denied", "flipped-chunk", "unknown-issuer",
         "wrong-secret", "edited-ledger", "nested-policy", "long-policy", "nested-key",
         "retired-key", "newline-node", "invalid-now", "zero-chunk-size", "negative-chunk-size",
         "negative-hop-budget", "negative-seed", "wide-seed", "unlink-unknown-node", "huge-size",
         "over-max-chunks", "at-max-chunks", "over-run-chunks", "malformed-event-log",
         "repeated-key", "unknown-key", "wide-depth",
         "wide-universe", "wide-chunk-size", "negative-timestamp", "empty-label",
         "deep-ledger", "missing-arguments", "no-identity"],
)
def test_exit_codes_in_a_fresh_interpreter(tmp_path, workspace, argv, code, stderr):
    """Each documented exit code, from ``python -m tskpabe.cli`` with nothing
    imported beforehand, so each outcome is reported with only the modules
    its command loaded.  A wrong directory secret reports ok=0 on stdout and
    a run at the chunk bound its summary; neither prints to stderr."""
    short_pk = tmp_path / "short-pk.bin"
    short_pk.write_bytes(Path(workspace["pk"]).read_bytes()[:40])
    flipped = bytearray(Path(workspace["pkg"]).read_bytes())
    flipped[-10] ^= 0x40  # inside the last chunk
    (tmp_path / "flipped.pkg").write_bytes(bytes(flipped))
    ledger = Path(workspace["ledger"]).read_text().replace('"pid:c3"', '"pid:c4"')
    (tmp_path / "edited.jsonl").write_text(ledger)
    (tmp_path / "deep.jsonl").write_text("[" * 200000)
    # A private key is the 16-byte header, marker 2, the 4-byte pid, then
    # its policy text; marker 1 is the retired matrix format.
    key = Path(workspace["sk"]).read_bytes()
    text_end = 25 + int.from_bytes(key[21:25], "big")
    nested = _NESTED.encode()
    (tmp_path / "nested-sk.bin").write_bytes(
        key[:21] + len(nested).to_bytes(4, "big") + nested + key[text_end:]
    )
    (tmp_path / "retired-sk.bin").write_bytes(key[:16] + b"\x01" + key[17:])
    # The policy text is followed by the node count and the first node,
    # "2022-07", as a 4-byte length and its text.
    assert key[text_end + 2:text_end + 13] == (7).to_bytes(4, "big") + b"2022-07"
    (tmp_path / "newline-sk.bin").write_bytes(
        key[:text_end + 2] + (8).to_bytes(4, "big") + b"2022-07\n" + key[text_end + 13:]
    )
    paths = dict(workspace, short_pk=short_pk, flipped_pkg=tmp_path / "flipped.pkg",
                 edited_ledger=tmp_path / "edited.jsonl", deep_ledger=tmp_path / "deep.jsonl",
                 nested_sk=tmp_path / "nested-sk.bin",
                 retired_sk=tmp_path / "retired-sk.bin", newline_sk=tmp_path / "newline-sk.bin",
                 out=tmp_path / "out.bin")
    for name, text in _BAD_SCENARIOS.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "tskpabe.cli", *(a.format(**paths) for a in argv)],
        env=_fresh_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if not stderr:
        assert proc.stderr == "" and ("ok=0" if code else "served=1") in proc.stdout
    else:
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(stderr), proc.stderr
