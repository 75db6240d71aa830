"""In-memory span tracing around the program's public functions.

The tracer replaces module and class attributes of the program with
wrappers that record one span per call: name, start, end, parent span and
operation id.  Nothing inside the program changes; a call the program makes
to a wrapped function through a module or class attribute is traced too.
Spans stay in memory until the workload ends, then go to a JSON-lines file,
and each layer's self time is the span's duration minus its direct
children's.
"""

import json
from time import perf_counter

# Per-layer metrics of the traced run, with their units.  Every traced run
# reports all of them; a layer the workload never enters reads 0.
PER_LAYER = {
    "setup.import_ms": "ms",
    "groups.pairings": "count",
    "groups.exponentiations": "count",
    "timetree.cover_us": "us/call",
    "lsss.compile_us": "us/call",
    "lsss.reconstruct_us": "us/call",
    "lsss.reconstruct_calls": "count",
    "scheme.keygen_ms": "ms/call",
    "scheme.encrypt_ms": "ms/call",
    "scheme.decrypt_ms": "ms/call",
    "scheme.decode_us": "us/call",
    "envelope.dem_seal_mib_s": "MiB/s",
    "envelope.encode_mib_s": "MiB/s",
    "envelope.dem_open_mib_s": "MiB/s",
    "envelope.decode_mib_s": "MiB/s",
    "ndnsim.parse_ms": "ms/call",
    "ndnsim.build_ms": "ms/call",
    "ndnsim.interest_us": "us/call",
    "ndnsim.topology_ms": "ms/call",
    "ndnsim.hit_ratio": "ratio",
    "ndnsim.evictions": "count",
    "ndnsim.integrity_retries": "count",
    "ndnsim.events": "count",
    "subscription.subscribe_ms": "ms/call",
    "subscription.revoke_ms": "ms/call",
    "subscription.check_us": "us/call",
    "subscription.prune_ms": "ms/call",
    "subscription.ledger_entries": "count",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
}

CLI_COMMANDS = (
    "cover", "setup", "keygen", "encrypt", "decrypt", "audit", "seal", "open",
    "dir-build", "dir-verify", "sim-run", "revoke", "check", "prune",
)
for _command in CLI_COMMANDS:
    PER_LAYER[f"cli.{_command.replace('-', '_')}_ms"] = "ms"

# Per-call self time, by span name: metric -> (span name, scale).
_PER_CALL = {
    "timetree.cover_us": ("timetree.set_cover", 1e6),
    "lsss.compile_us": ("lsss.compile_policy", 1e6),
    "lsss.reconstruct_us": ("lsss.reconstruct_coeffs", 1e6),
    "scheme.keygen_ms": ("scheme.keygen", 1e3),
    "scheme.encrypt_ms": ("scheme.encrypt", 1e3),
    "scheme.decrypt_ms": ("scheme.decrypt", 1e3),
    "scheme.decode_us": ("scheme.decode", 1e6),
    "ndnsim.parse_ms": ("ndnsim.parse_scenario", 1e3),
    "ndnsim.build_ms": ("ndnsim.build", 1e3),
    "ndnsim.interest_us": ("ndnsim.submit_interest", 1e6),
    "ndnsim.topology_ms": ("ndnsim.run", 1e3),
    "subscription.subscribe_ms": ("subscription.subscribe", 1e3),
    "subscription.revoke_ms": ("subscription.revoke", 1e3),
    "subscription.check_us": ("subscription.daily_check", 1e6),
    "subscription.prune_ms": ("subscription.prune", 1e3),
}

# Throughput over self time: metric -> span name.
_THROUGHPUT = {
    "envelope.dem_seal_mib_s": "envelope.dem_seal",
    "envelope.encode_mib_s": "envelope.package_to_bytes",
    "envelope.dem_open_mib_s": "envelope.dem_open",
    "envelope.decode_mib_s": "envelope.package_from_bytes",
}


class Tracer:
    def __init__(self):
        # (name, start, end, parent index, operation id, bytes)
        self.spans: list = []
        self._stack: list[int] = []
        self.op = 0

    def wrap(self, name, fn, size=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, perf_counter(), parent, self.op, 0)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            spans[index] = (
                name, start, end, parent, self.op,
                size(args, result) if size else 0,
            )
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, size=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), size))

    def install(self):
        """Wrap every public function the per-layer metrics name."""
        from tskpabe import envelope, lsss, ndnsim, scheme, subscription, timetree

        def arg_len(position):
            return lambda args, result: len(args[position])

        self.patch(timetree, "set_cover", "timetree.set_cover")
        subscription.set_cover = timetree.set_cover
        self.patch(lsss, "compile_policy", "lsss.compile_policy")
        self.patch(lsss, "reconstruct_coeffs", "lsss.reconstruct_coeffs")
        for method in ("keygen", "encrypt", "decrypt"):
            self.patch(scheme.TimedKpAbe, method, f"scheme.{method}")
        for decoder in ("pk_from_bytes", "sk_from_bytes", "ct_from_bytes"):
            self.patch(scheme, decoder, "scheme.decode")
        envelope.ct_from_bytes = scheme.ct_from_bytes
        self.patch(envelope.StreamDem, "seal", "envelope.dem_seal", arg_len(3))
        self.patch(
            envelope.StreamDem, "open", "envelope.dem_open",
            lambda args, result: len(result),
        )
        self.patch(
            envelope, "package_to_bytes", "envelope.package_to_bytes",
            lambda args, result: len(result),
        )
        self.patch(
            envelope, "package_from_bytes", "envelope.package_from_bytes", arg_len(0)
        )
        self.patch(envelope, "seal", "envelope.seal")
        self.patch(envelope, "open_package", "envelope.open_package")
        self.patch(ndnsim, "parse_scenario", "ndnsim.parse_scenario")
        self.patch(ndnsim.Simulation, "__init__", "ndnsim.build")
        self.patch(ndnsim.Simulation, "submit_interest", "ndnsim.submit_interest")
        self.patch(ndnsim.Simulation, "run", "ndnsim.run")
        self.patch(subscription.SubscriptionService, "subscribe", "subscription.subscribe")
        self.patch(subscription.RevocationLedger, "revoke", "subscription.revoke")
        self.patch(subscription.RevocationLedger, "prune", "subscription.prune")
        self.patch(
            subscription.InfotainmentAgent, "daily_check", "subscription.daily_check"
        )

    def self_times(self) -> dict:
        """name -> [calls, self seconds, bytes]."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            entry = out.setdefault(span[0], [0, 0.0, 0])
            entry[0] += 1
            entry[1] += span[2] - span[1] - child[index]
            entry[2] += span[5]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["name","start","end","parent","op","bytes"]\n')
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def layer_metrics(self_times: dict, counts: dict) -> dict:
    """Every per-layer metric: derived from span self times, or taken from
    ``counts`` for the ones the workload measures directly."""
    out = {name: 0 for name in PER_LAYER}
    for metric, (span, scale) in _PER_CALL.items():
        calls, seconds, _ = self_times.get(span, (0, 0.0, 0))
        if calls:
            out[metric] = seconds / calls * scale
    for metric, span in _THROUGHPUT.items():
        _, seconds, nbytes = self_times.get(span, (0, 0.0, 0))
        if seconds > 0:
            out[metric] = nbytes / seconds / (1 << 20)
    for name, value in counts.items():
        if name not in PER_LAYER:
            raise KeyError(f"unknown per-layer metric {name}")
        out[name] = value
    return out
