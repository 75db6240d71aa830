#!/usr/bin/env python3
"""Sweep scheme parameters and tabulate measured vs predicted sizes.

Measured numbers come from walking actually constructed keys and
ciphertexts and from the pairing counter around a real decryption; the
predicted columns are the closed-form size formulas.  Any mismatch would
print match=0 and flip the exit code.
"""

import argparse
import sys

from tskpabe.audit import bench_instance
from tskpabe.groups import DEFAULT_MODULUS, TransparentSuite
from tskpabe.scheme import Mode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--modulus", type=int, default=DEFAULT_MODULUS)
    parser.add_argument("--depth", type=int, default=4)
    parser.add_argument("--mode", choices=[m.value for m in Mode], default="repaired")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    suite = TransparentSuite(args.modulus)
    mode = Mode(args.mode)
    header = (
        f"{'U':>2} {'l':>2} {'|T|':>3} {'|Tc|':>4}  "
        f"{'pk':>7} {'sk':>7} {'ct':>7}  {'pair':>5} {'pred':>5}  match"
    )
    print(header)
    print("-" * len(header))
    all_ok = True
    for U in (1, 2, 4, 8):
        for l in (1, 3, 6):
            for tk in (1, 4, 8):
                for tc in (1, 4, 8):
                    r = bench_instance(suite, mode, U, args.depth, l, tk, tc, args.seed)
                    ok = all(r[k][0] == r[k][1] for k in ("pk", "sk", "ct", "pairings"))
                    all_ok &= ok
                    print(
                        f"{U:>2} {l:>2} {tk:>3} {tc:>4}  "
                        f"{r['pk'][0][0]:>3}+{r['pk'][0][1]}   "
                        f"{r['sk'][0][0]:>3}+{r['sk'][0][1]}   "
                        f"{r['ct'][0][0]:>3}+{r['ct'][0][1]}   "
                        f"{r['pairings'][0]:>5} {r['pairings'][1]:>5}  {int(ok)}"
                    )
    print(f"all_match={int(all_ok)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
