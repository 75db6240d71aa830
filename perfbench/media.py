"""media: a provider seals multi-MiB clips, a vehicle decodes and opens them.

Inputs per round: one clip per chunk size from 4 KiB to the 1 MiB default,
each a few MiB of seeded bytes under a label set and a month cover the
vehicle's key is entitled to, plus one copy of each encoded package with a
flipped byte inside a sealed chunk.
"""

import hashlib
import math
from random import Random
from time import perf_counter

CHUNK_SIZES = (4096, 16384, 65536, 262144, 1 << 20)
CLIP_BYTES = 3 * (1 << 20) + 4321
UNIVERSE = ("sports", "movies", "news", "kids", "hd", "family", "premium", "regional")
KEY_POLICY = "(movies AND hd) OR (sports AND premium)"
KEY_WINDOW = ((2022, 3, 1), (2022, 12, 31))
TAG_BYTES = 32


def inputs(seed: int, rnd: int, scale: float) -> list[dict]:
    rng = Random(f"media/{seed}/{rnd}")
    size = max(4096, int(CLIP_BYTES * scale))
    clips = []
    for k, chunk in enumerate(CHUNK_SIZES):
        content = rng.randbytes(size)
        wanted = rng.choice((("movies", "hd"), ("sports", "premium")))
        extra = rng.sample([a for a in UNIVERSE if a not in wanted], rng.randint(0, 3))
        lengths = [min(chunk, size - at) for at in range(0, size, chunk)]
        victim = rng.randrange(len(lengths))
        # Offset, from the end of the encoding, of a byte inside the victim's
        # sealed body; each sealed chunk is a u32 length then body and tag.
        tail = sum(4 + n + TAG_BYTES for n in lengths[victim:])
        flip_from_end = tail - 4 - rng.randrange(lengths[victim] + TAG_BYTES)
        clips.append(
            {
                "name": f"clip-{rnd}-{k}.ts",
                "content": content,
                "sha256": hashlib.sha256(content).digest(),
                "chunk": chunk,
                "labels": tuple(sorted(wanted + tuple(extra))),
                "month": f"2022-{rng.randint(3, 12):02d}",
                "flip_from_end": flip_from_end,
            }
        )
    return clips


class Media:
    name = "media"

    def __init__(self, seed: int, scale: float, workdir):
        self.seed = seed
        self.scale = scale

    def inputs(self, rnd: int) -> list[dict]:
        return inputs(self.seed, rnd, self.scale)

    def setup(self, modules) -> None:
        self.m = modules
        groups, scheme, subscription, timetree = (
            modules["groups"], modules["scheme"], modules["subscription"], modules["timetree"],
        )
        self.scheme = scheme.TimedKpAbe(groups.TransparentSuite(groups.DEFAULT_MODULUS))
        self.pk, mk = self.scheme.setup(UNIVERSE, rng=Random(f"media-provider/{self.seed}"))
        service = subscription.SubscriptionService(
            self.scheme, self.pk, mk, KEY_WINDOW[0], rng=Random(f"media-key/{self.seed}")
        )
        self.key = service.subscribe(
            "vehicle", timetree.TimeWindow(*KEY_WINDOW), KEY_POLICY
        ).key

    def prepare(self, clips: list[dict], rnd: int) -> dict:
        return {"clips": clips, "rnd": rnd}

    def run(self, prepared: dict, marker) -> dict:
        envelope, timetree = self.m["envelope"], self.m["timetree"]
        scheme, pk = self.scheme, self.pk
        counters = pk.suite.counters
        before = counters.snapshot()
        rng = Random(f"media-seal/{self.seed}/{prepared['rnd']}")
        samples, outputs, errors = [], [], []
        op = 0
        for clip in prepared["clips"]:
            cover = timetree.TimeCover.from_nodes([timetree.TimeNode.parse(clip["month"])])
            try:
                marker.op = op
                package = envelope.seal(
                    scheme, pk, clip["name"], clip["content"], cover, clip["labels"],
                    rng=rng, chunk_size=clip["chunk"],
                )
                blob = envelope.package_to_bytes(package)
                marker.op = op + 1
                t = perf_counter()
                decoded = envelope.package_from_bytes(blob)
                opened = envelope.open_package(scheme, pk, decoded, self.key)
                samples.append(perf_counter() - t)
                marker.op = op + 2
                flipped = bytearray(blob)
                flipped[len(blob) - clip["flip_from_end"]] ^= 0x01
                try:
                    envelope.open_package(
                        scheme, pk, envelope.package_from_bytes(bytes(flipped)), self.key
                    )
                    tamper = "opened"
                except envelope.IntegrityError:
                    tamper = "integrity"
                outputs.append((len(decoded.chunks), opened, tamper))
            except Exception as exc:  # noqa: BLE001 - reported as a failed check
                errors.append(f"{clip['name']}: {type(exc).__name__}: {exc}")
                outputs.append(None)
            op += 3
        spent = counters.since(before)
        return {
            "ops": 3 * len(prepared["clips"]),
            "samples": samples,
            "errors": errors,
            "outputs": outputs,
            "counts": {
                "groups.pairings": spent.pairings,
                "groups.exponentiations": spent.source_exponentiations
                + spent.target_exponentiations,
            },
        }

    def check(self, clips: list[dict], rec: dict) -> tuple[int, list[str]]:
        problems = list(rec["errors"])
        for clip, out in zip(clips, rec["outputs"]):
            if out is None:
                continue
            chunks, opened, tamper = out
            if chunks != math.ceil(len(clip["content"]) / clip["chunk"]):
                problems.append(f"{clip['name']}: {chunks} chunks")
            if opened != clip["content"] or hashlib.sha256(opened).digest() != clip["sha256"]:
                problems.append(f"{clip['name']}: opened bytes differ from the original")
            if tamper != "integrity":
                problems.append(f"{clip['name']}: tampered copy did not fail closed")
        return len(rec["errors"]), problems
