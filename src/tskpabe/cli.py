"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 access denied, 3 integrity
failure, 4 verification failure.  Every subcommand is deterministic given
``--seed`` and its inputs.
"""

import argparse
import importlib
import os
import sys
from random import Random

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DENIED = 2
EXIT_INTEGRITY = 3
EXIT_VERIFICATION = 4


class UsageError(Exception):
    pass


class LedgerChainError(Exception):
    """The revocation ledger's digest chain does not verify."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for denials
        raise UsageError(message)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _cover_from_args(args):
    from .timetree import TimeCover, TimeNode, TimeWindow, set_cover

    if getattr(args, "window", None):
        return set_cover(TimeWindow.parse(args.window))
    if getattr(args, "nodes", None):
        nodes = [TimeNode.parse(t) for t in args.nodes.split(",") if t]
        return TimeCover.from_nodes(nodes)
    raise UsageError("need --window or --nodes")


def _scheme_for(pk):
    from .scheme import TimedKpAbe

    return TimedKpAbe(pk.suite, pk.mode)


def _error_class(module: str, name: str) -> type:
    """Error class ``name`` of program module ``module``.  Python evaluates an
    ``except`` clause's class only while matching a raised exception, so a
    command that succeeds never imports a module for its error classes."""
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=0, help="deterministic RNG seed")


# ----------------------------------------------------------------------
# Subcommand handlers.  Each imports the program modules it uses, so a
# short command does not pay for loading the rest.
# ----------------------------------------------------------------------


def _cmd_setup(args) -> int:
    from .groups import parse_suite
    from .scheme import DEFAULT_DEPTH, Mode, TimedKpAbe, component_counts, mk_to_bytes, pk_to_bytes

    suite = parse_suite(args.suite)
    mode = Mode(args.mode)
    universe = args.attrs.split(",") if args.attrs else int(args.universe_size)
    depth = DEFAULT_DEPTH if args.depth is None else args.depth
    scheme = TimedKpAbe(suite, mode)
    pk, mk = scheme.setup(universe, depth=depth, rng=Random(args.seed))
    _write(args.out_pk, pk_to_bytes(pk))
    _write(args.out_mk, mk_to_bytes(mk, suite, mode))
    source, target = component_counts(pk)
    print(f"suite=transparent:{suite.p} mode={mode.value}")
    print(f"universe={','.join(pk.universe)} depth={pk.depth}")
    print(f"pk_source={source} pk_target={target}")
    print(f"wrote pk={args.out_pk}")
    print(f"wrote mk={args.out_mk}")
    return EXIT_OK


def _cmd_keygen(args) -> int:
    from .lsss import compile_policy
    from .scheme import component_counts, mk_from_bytes, pk_from_bytes, sk_to_bytes

    pk = pk_from_bytes(_read(args.pk))
    mk, mk_mode, mk_suite = mk_from_bytes(_read(args.mk))
    if mk_mode is not pk.mode or mk_suite != pk.suite:
        raise UsageError("master key does not match the public parameters")
    scheme = _scheme_for(pk)
    cover = _cover_from_args(args)
    if args.id is not None:
        pid = args.id  # keygen takes it mod p
    elif args.user:
        from .subscription import derive_pseudo_id

        start = cover.window().start
        nonce = bytes.fromhex(args.nonce) if args.nonce else b""
        pid = derive_pseudo_id(pk.suite, args.user, start, nonce).scalar
    else:
        raise UsageError("need --id or --user")
    access = compile_policy(args.policy, pk.suite.p)
    sk = scheme.keygen(pk, mk, pid, cover, access, rng=Random(args.seed))
    _write(args.out, sk_to_bytes(sk))
    source, target = component_counts(sk)
    print(f"pid=pid:{sk.pid:x} rows={access.rows}")
    print(f"cover={','.join(cover.texts())}")
    print(f"sk_source={source} sk_target={target}")
    print(f"wrote sk={args.out}")
    return EXIT_OK


def _cmd_encrypt(args) -> int:
    from .scheme import component_counts, ct_to_bytes, pk_from_bytes

    pk = pk_from_bytes(_read(args.pk))
    scheme = _scheme_for(pk)
    cover = _cover_from_args(args)
    attrs = [a for a in args.attrs.split(",") if a]
    rng = Random(args.seed)
    message = pk.suite.random_target(rng)
    ct = scheme.encrypt(pk, message, cover, attrs, rng=rng)
    _write(args.out, ct_to_bytes(ct))
    source, target = component_counts(ct)
    print(f"message={pk.suite.encode_element(message).hex()}")
    print(f"cover={','.join(cover.texts())} attrs={','.join(ct.attributes)}")
    print(f"ct_source={source} ct_target={target}")
    print(f"wrote ct={args.out}")
    return EXIT_OK


def _cmd_decrypt(args) -> int:
    from .scheme import ct_from_bytes, pk_from_bytes, sk_from_bytes

    pk = pk_from_bytes(_read(args.pk))
    sk = sk_from_bytes(_read(args.sk))
    ct = ct_from_bytes(_read(args.ct))
    scheme = _scheme_for(pk)
    before = pk.suite.counters.snapshot()
    message = scheme.decrypt(pk, ct, sk)
    if message is None:
        print("denied: attribute set or time cover does not entitle this key", file=sys.stderr)
        return EXIT_DENIED
    pairings = pk.suite.counters.since(before).pairings
    print(f"message={pk.suite.encode_element(message).hex()}")
    print(f"pairings={pairings}")
    return EXIT_OK


def _cmd_cover(args) -> int:
    from .timetree import TimeWindow, set_cover

    cover = set_cover(TimeWindow.parse(args.window))
    if args.json:
        import json

        print(json.dumps({"window": args.window, "nodes": cover.texts()}, sort_keys=True))
    else:
        for text in cover.texts():
            print(text)
    return EXIT_OK


def _cmd_audit(args) -> int:
    from .audit import audit_decryption
    from .scheme import ct_from_bytes, pk_from_bytes, sk_from_bytes

    pk = pk_from_bytes(_read(args.pk))
    sk = sk_from_bytes(_read(args.sk))
    ct = ct_from_bytes(_read(args.ct))
    report = audit_decryption(_scheme_for(pk), pk, ct, sk)
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "mode": report.mode.value,
                    "node": report.node.text(),
                    "steps": [
                        {
                            "step": s.step,
                            "name": s.name,
                            "closed": s.closed,
                            "residual_log": s.residual.log,
                        }
                        for s in report.steps
                    ],
                    "all_closed": report.all_closed,
                    "attributes_bound": report.attributes_bound,
                },
                sort_keys=True,
            )
        )
        return EXIT_OK
    print(f"mode={report.mode.value} node={report.node.text()}")
    for s in report.steps:
        print(
            f"step={s.step} name={s.name} closed={int(s.closed)} "
            f"residual_log={s.residual.log}"
        )
    print(f"all_closed={int(report.all_closed)}")
    print(f"attributes_bound={int(report.attributes_bound)}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .audit import bench_instance
    from .groups import parse_suite
    from .scheme import DEFAULT_DEPTH, Mode

    suite = parse_suite(args.suite)
    mode = Mode(args.mode)
    depth = DEFAULT_DEPTH if args.depth is None else args.depth
    result = bench_instance(suite, mode, args.U, depth, args.l, args.tk, args.tc, args.seed)
    rows = {}
    all_match = True
    for kind in ("pk", "sk", "ct"):
        measured, predicted = result[kind]
        match = measured == predicted
        all_match &= match
        rows[kind] = {
            "measured_source": measured[0],
            "measured_target": measured[1],
            "predicted_source": predicted[0],
            "predicted_target": predicted[1],
            "match": match,
        }
    pairings, predicted_p = result["pairings"]
    pair_match = pairings == predicted_p
    all_match &= pair_match
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "params": {
                        "U": args.U,
                        "depth": depth,
                        "l": args.l,
                        "tk": args.tk,
                        "tc": args.tc,
                        "mode": mode.value,
                    },
                    **rows,
                    "decrypt": {
                        "rows_used": result["used_rows"],
                        "pairings": pairings,
                        "predicted": predicted_p,
                        "match": pair_match,
                    },
                    "all_match": all_match,
                },
                sort_keys=True,
            )
        )
        return EXIT_OK
    print(
        f"bench U={args.U} depth={depth} l={args.l} tk={args.tk} tc={args.tc} "
        f"suite=transparent:{suite.p} mode={mode.value}"
    )
    for kind in ("pk", "sk", "ct"):
        r = rows[kind]
        print(
            f"{kind} measured_source={r['measured_source']} measured_target={r['measured_target']} "
            f"predicted_source={r['predicted_source']} predicted_target={r['predicted_target']} "
            f"match={int(r['match'])}"
        )
    print(
        f"decrypt rows_used={result['used_rows']} pairings={pairings} "
        f"predicted={predicted_p} match={int(pair_match)}"
    )
    print(f"all_match={int(all_match)}")
    return EXIT_OK


def _cmd_seal(args) -> int:
    from . import envelope
    from .scheme import pk_from_bytes

    pk = pk_from_bytes(_read(args.pk))
    scheme = _scheme_for(pk)
    cover = _cover_from_args(args)
    attrs = [a for a in args.attrs.split(",") if a]
    content = _read(args.infile)
    name = args.name or os.path.basename(args.infile)
    package = envelope.seal(
        scheme,
        pk,
        name,
        content,
        cover,
        attrs,
        rng=Random(args.seed),
        chunk_size=envelope.DEFAULT_CHUNK_SIZE if args.chunk_size is None else args.chunk_size,
    )
    _write(args.out, envelope.package_to_bytes(package))
    print(
        f"name={package.name} size={package.content_size} "
        f"chunks={len(package.chunks)} chunk_size={package.chunk_size}"
    )
    print(f"wrote package={args.out}")
    return EXIT_OK


def _cmd_open(args) -> int:
    from . import envelope
    from .scheme import pk_from_bytes, sk_from_bytes

    pk = pk_from_bytes(_read(args.pk))
    sk = sk_from_bytes(_read(args.sk))
    package = envelope.package_from_bytes(_read(args.infile))
    scheme = _scheme_for(pk)
    content = envelope.open_package(scheme, pk, package, sk)
    _write(args.out, content)
    print(f"name={package.name} size={len(content)}")
    print(f"wrote content={args.out}")
    return EXIT_OK


def _cmd_dir_build(args) -> int:
    import hashlib

    from . import envelope

    entries = []
    for path in args.files:
        data = _read(path)
        entries.append(
            envelope.DirectoryEntry(
                name=os.path.basename(path),
                file_hash=hashlib.sha256(data).digest(),
                updated_at=args.timestamp,
                description=args.description,
                category=args.category,
            )
        )
    signer = envelope.KeyedDigestSigner(args.issuer, bytes.fromhex(args.secret))
    directory = envelope.build_directory(entries, signer)
    _write(args.out, envelope.directory_to_bytes(directory))
    print(f"issuer={directory.issuer} entries={len(directory.entries)}")
    print(f"wrote directory={args.out}")
    return EXIT_OK


def _cmd_dir_verify(args) -> int:
    from . import envelope

    directory = envelope.directory_from_bytes(_read(args.directory))
    trusted = {}
    for spec in args.trusted:
        issuer, sep, secret = spec.partition("=")
        if not sep:
            raise UsageError(f"--trusted needs issuer=secrethex, got {spec!r}")
        trusted[issuer] = bytes.fromhex(secret)
    ok = envelope.verify_directory(directory, trusted)
    print(f"issuer={directory.issuer} entries={len(directory.entries)} ok={int(ok)}")
    if args.lookup:
        entry = directory.find(args.lookup)
        if entry is None:
            print(f"lookup={args.lookup} found=0")
        else:
            print(f"lookup={args.lookup} found=1 hash={entry.file_hash.hex()}")
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_sim_run(args) -> int:
    from .ndnsim import Simulation, parse_scenario

    with open(args.config, encoding="utf-8") as fh:
        config = parse_scenario(fh.read())
    result = Simulation(config).run()
    if args.events:
        with open(args.events, "w", encoding="utf-8") as fh:
            fh.write("\n".join(result.events) + "\n")
    if args.json:
        import json

        m = result.metrics
        print(
            json.dumps(
                {
                    "requests": m.requests,
                    "served": m.served,
                    "not_found": m.not_found,
                    "cache_hits": m.cache_hits,
                    "hit_ratio": round(m.hit_ratio, 4),
                    "integrity_events": m.integrity_events,
                },
                sort_keys=True,
            )
        )
    else:
        for line in result.metrics.summary_lines():
            print(line)
    return EXIT_OK


def _cmd_sim_replay(args) -> int:
    from .ndnsim import metrics_from_events

    with open(args.events, encoding="utf-8") as fh:
        events = fh.read().split("\n")
    metrics = metrics_from_events(events)
    for line in metrics.summary_lines():
        print(line)
    return EXIT_OK


def _load_ledger(path: str):
    from .subscription import RevocationLedger

    ledger = RevocationLedger.load(path) if os.path.exists(path) else RevocationLedger()
    if not ledger.verify():
        raise LedgerChainError(f"ledger {path}: digest chain does not verify")
    return ledger


def _cmd_revoke(args) -> int:
    from .timetree import parse_day

    ledger = _load_ledger(args.ledger)
    duplicate = ledger.lookup(args.pid) is not None
    entry = ledger.revoke(args.pid, parse_day(args.expiry), parse_day(args.now))
    ledger.save(args.ledger)
    print(
        f"revoked pid={entry.pid} expiry={args.expiry} duplicate={int(duplicate)}"
    )
    for warning in ledger.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def _cmd_check(args) -> int:
    from .subscription import InfotainmentAgent
    from .timetree import parse_day

    ledger = _load_ledger(args.ledger)
    agent = InfotainmentAgent(ledger)
    status = agent.daily_check(args.pid, parse_day(args.now))
    print(f"pid={args.pid} status={status}")
    return EXIT_OK if status == InfotainmentAgent.ACTIVE else EXIT_DENIED


def _cmd_prune(args) -> int:
    from .timetree import parse_day

    ledger = _load_ledger(args.ledger)
    removed = ledger.prune(parse_day(args.now))
    ledger.save(args.ledger)
    print(f"removed={removed} remaining={len(ledger.entries())}")
    return EXIT_OK


def _cmd_ledger_verify(args) -> int:
    from .subscription import RevocationLedger

    ledger = RevocationLedger.load(args.ledger)
    ok = ledger.verify()
    print(f"blocks={len(ledger.blocks)} entries={len(ledger.entries())} ok={int(ok)}")
    return EXIT_OK if ok else EXIT_VERIFICATION


# ----------------------------------------------------------------------
# Parser assembly.
# ----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="tskpabe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def suite_mode(p):
        # "transparent" names the default modulus; the mode literals are
        # scheme.Mode's values, which a test keeps in step.
        p.add_argument("--suite", default="transparent")
        p.add_argument("--mode", choices=["paper", "repaired"], default="repaired")

    p = sub.add_parser("setup", help="generate public parameters and a master key")
    suite_mode(p)
    p.add_argument("--attrs", help="comma-separated attribute universe")
    p.add_argument("--universe-size", type=int, default=3)
    p.add_argument("--depth", type=int)
    p.add_argument("--out-pk", required=True)
    p.add_argument("--out-mk", required=True)
    _add_seed(p)
    p.set_defaults(func=_cmd_setup)

    p = sub.add_parser("keygen", help="issue a private key for a policy and time window")
    p.add_argument("--pk", required=True)
    p.add_argument("--mk", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--window", help="start..end day window")
    p.add_argument("--nodes", help="comma-separated time nodes")
    p.add_argument("--id", type=int, help="pseudo-identity scalar")
    p.add_argument("--user", help="derive the pseudo-identity from this user id")
    p.add_argument("--nonce", help="hex nonce for pseudo-identity derivation")
    p.add_argument("--out", required=True)
    _add_seed(p)
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("encrypt", help="wrap a fresh random message element")
    p.add_argument("--pk", required=True)
    p.add_argument("--attrs", required=True)
    p.add_argument("--window")
    p.add_argument("--nodes")
    p.add_argument("--out", required=True)
    _add_seed(p)
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="unwrap a ciphertext with a private key")
    p.add_argument("--pk", required=True)
    p.add_argument("--sk", required=True)
    p.add_argument("--ct", required=True)
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("cover", help="minimal time-node cover of a day window")
    p.add_argument("window")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("audit", help="step-by-step decryption equation audit")
    p.add_argument("--pk", required=True)
    p.add_argument("--sk", required=True)
    p.add_argument("--ct", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("bench", help="measured vs predicted sizes and pairing counts")
    suite_mode(p)
    p.add_argument("--U", type=int, required=True, help="attribute universe size")
    p.add_argument("--depth", type=int)
    p.add_argument("--l", type=int, required=True, help="policy leaves (LSSS rows)")
    p.add_argument("--tk", type=int, required=True, help="key cover size")
    p.add_argument("--tc", type=int, required=True, help="ciphertext cover size")
    p.add_argument("--json", action="store_true")
    _add_seed(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("seal", help="package a content file under the scheme")
    p.add_argument("--pk", required=True)
    p.add_argument("--attrs", required=True)
    p.add_argument("--window")
    p.add_argument("--nodes")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--name")
    p.add_argument("--chunk-size", type=int)
    _add_seed(p)
    p.set_defaults(func=_cmd_seal)

    p = sub.add_parser("open", help="verify and decrypt a packaged content file")
    p.add_argument("--pk", required=True)
    p.add_argument("--sk", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_open)

    p = sub.add_parser("dir-build", help="build a signed resource directory from files")
    p.add_argument("--issuer", required=True)
    p.add_argument("--secret", required=True, help="hex signing secret")
    p.add_argument("--out", required=True)
    p.add_argument("--category", default="public-infotainment")
    p.add_argument("--description", default="")
    p.add_argument("--timestamp", type=int, default=0)
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_dir_build)

    p = sub.add_parser("dir-verify", help="verify a signed resource directory")
    p.add_argument("--dir", dest="directory", required=True)
    p.add_argument("--trusted", action="append", default=[], help="issuer=secrethex")
    p.add_argument("--lookup")
    p.set_defaults(func=_cmd_dir_verify)

    p = sub.add_parser("sim", help="scenario simulator")
    sim_sub = p.add_subparsers(dest="sim_command", required=True)
    pr = sim_sub.add_parser("run", help="run a scenario config")
    pr.add_argument("config")
    pr.add_argument("--events", help="write the event log to this file")
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(func=_cmd_sim_run)
    pp = sim_sub.add_parser("replay", help="recompute metrics from an event log")
    pp.add_argument("events")
    pp.set_defaults(func=_cmd_sim_replay)

    p = sub.add_parser("revoke", help="put a pseudo-identity on the revocation ledger")
    p.add_argument("--ledger", required=True)
    p.add_argument("--pid", required=True)
    p.add_argument("--expiry", required=True)
    p.add_argument("--now", required=True)
    p.set_defaults(func=_cmd_revoke)

    p = sub.add_parser("check", help="agent revocation check")
    p.add_argument("--ledger", required=True)
    p.add_argument("--pid", required=True)
    p.add_argument("--now", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("prune", help="drop expired revocation entries")
    p.add_argument("--ledger", required=True)
    p.add_argument("--now", required=True)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("ledger-verify", help="verify the revocation ledger chain")
    p.add_argument("--ledger", required=True)
    p.set_defaults(func=_cmd_ledger_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LedgerChainError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except SystemExit as exc:
        return EXIT_OK if exc.code in (None, 0) else EXIT_USAGE
    except (ValueError, OSError) as exc:  # wire.WireError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _error_class("scheme", "UnknownAttributeError") as exc:
        print(f"usage error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except _error_class("envelope", "AccessDeniedError") as exc:
        print(f"access denied: {exc}", file=sys.stderr)
        return EXIT_DENIED
    except _error_class("envelope", "IntegrityError") as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except _error_class("envelope", "UnknownIssuerError") as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
