"""Fixed reference work that measures how fast the host runs right now.

run.py spawns this script between the passes of a run, as a fresh process
like every op, and divides each pass's times by the reference's times next
to it.  It has two parts, timed apart, because the host's load slows
interpreter-bound code and C-level big-int code by different amounts:

- ``interp``: tuples built and kept in lists, sparse dict accumulation and
  row reduction mod a prime over dict rows, like the verify suites and the
  oracle;
- ``bigint``: big-int products and decimal output, like the giant tables.

The work never changes, so a change in its time is a change in the host.
Prints a checksum line, which run.py checks, then the two parts' seconds.
"""

import sys
import time


def interp() -> tuple[int, int, int]:
    words = [tuple((i * 7 + j * j) % 3 for j in range(9)) for i in range(30_000)]
    acc: dict[tuple, int] = {}
    for n, w in enumerate(words):
        acc[w] = acc.get(w, 0) + (n & 7) - 3
    p = 10_007
    rows = [{(i * j) % 97: (i + j) % p for j in range(1, 24)} for i in range(1, 400)]
    rank = 0
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {k: v for k, v in row.items() if v}
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {k: v * inv % p for k, v in row.items()}
                rank += 1
                break
            f = row[lead]
            for k, v in pivots[lead].items():
                row[k] = (row.get(k, 0) - f * v) % p
                if not row[k]:
                    del row[k]
    return len(words), sum(acc.values()), rank


def bigint() -> tuple[int, str]:
    x = 1
    for i in range(1, 2_500):
        x *= i
    digits = 0
    for e in range(2, 9):
        digits += len(str(x**e))
    return digits, str(x)[:20]


def main() -> None:
    sys.set_int_max_str_digits(0)
    t0 = time.perf_counter()
    a = interp()
    t1 = time.perf_counter()
    b = bigint()
    t2 = time.perf_counter()
    print(*a, *b)
    print(t1 - t0, t2 - t1)


if __name__ == "__main__":
    main()
