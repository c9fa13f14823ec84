"""siou's CSV row formatter, standard library only: ``python -I -S _csvpart.py DIR K NCOLS FIRST`` runs it on part K."""

import sys
from array import array

BLOCK_ROWS = 1024  # rows per str.format call


def write_rows(fh, values, ncols: int, row: str, first: int = 0) -> None:
    """Write to binary ``fh`` the floats ``values``, ``ncols`` per row r from ``first``, as ``row.format(r)`` filled:
    ``{0}`` is r, each ``{{!r}}`` a value's repr, a literal brace four braces; one ``str.format`` per block of rows."""
    step = BLOCK_ROWS * ncols
    for i in range(0, len(values), step):
        block = values[i : i + step].tolist()
        n = len(block) // ncols
        template = "".join(map(row.format, range(first, first + n))) if "{0}" in row else row.format(0) * n
        fh.write(template.format(*block).encode("utf-8"))
        first += n


if __name__ == "__main__":
    tmp, k, ncols, first = sys.argv[1:]
    with open(f"{tmp}/row", "rb") as fh, open(f"{tmp}/{k}.f64", "rb") as src, open(f"{tmp}/{k}.csv", "wb") as out:
        write_rows(out, array("d", src.read()), int(ncols), fh.read().decode("utf-8"), int(first))
